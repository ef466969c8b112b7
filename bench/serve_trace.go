package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/twin"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// traceServe turns the handler spans the middleware kept and the client
// spans of the same requests into the server metrics, then measures, by
// direct calls with the same inputs, the layers the handlers call into.
func traceServe(e *env, d *daemon, samples []sample) error {
	var handler [numClasses][]float64 // handler span, us, reference step only
	var memoBytes []float64
	contained := true
	for _, s := range samples {
		h, ok := d.handlers[s.p.seq]
		if !ok {
			e.checkf(s.status == 0, "request %d reached no handler", s.p.seq)
			continue
		}
		e.spans.record("server.handler", s.spanID, s.p.seq, className[s.p.class], h.start, h.dur)
		// The handler's span lies inside the client's: both ends of the
		// request were observed on one clock and nothing was lost between.
		if h.start.Before(s.sent) || h.start.Add(h.dur).After(s.sent.Add(s.service)) {
			contained = false
		}
		if s.p.step != refStep {
			continue
		}
		handler[s.p.class] = append(handler[s.p.class], us(h.dur))
		if s.p.class == clsMemo {
			memoBytes = append(memoBytes, float64(s.bytes))
		}
	}
	e.checkf(contained, "a server.handler span is not contained in its client.request span")
	for c := clsMemo; c < clsCold; c++ {
		e.set("server.handler_"+className[c]+"_us", median(handler[c]), len(handler[c]))
	}
	var coldHandler []float64
	for _, s := range samples {
		if h, ok := d.handlers[s.p.seq]; ok && s.p.class == clsCold {
			coldHandler = append(coldHandler, ms(h.dur))
		}
	}
	e.set("server.handler_cold_ms", median(coldHandler), len(coldHandler))

	// Transport is the client span's self time: what is left of the request
	// once the handler's span is taken out.
	self := selfTimes(e.spans.snapshot())
	var transport []float64
	for _, s := range samples {
		if s.p.step == refStep && s.p.class != clsCold {
			transport = append(transport, float64(self[s.spanID])/1e3)
		}
	}
	e.set("server.transport_us", median(transport), len(transport))
	if len(memoBytes) > 0 {
		var sum float64
		for _, b := range memoBytes {
			sum += b
		}
		e.set("server.resp_kb_memo", sum/float64(len(memoBytes))/1024, len(memoBytes))
	}

	// The same memo hit by a direct call into the harness: what is left of
	// the handler's span is the server's own decode, encode and bookkeeping.
	apps := harness.AllApps()
	golden := matrix(apps, fig10Configs)
	ctx := context.Background()
	memoHit := nsPerOp(compRounds, 100, func(n int) {
		for i := 0; i < n; i++ {
			c := golden[i%len(golden)]
			if _, err := d.runner.RunEngineNamed(ctx, c.app, c.cfg, false, harness.EngineReq{}, harness.RunOpts{}); err != nil {
				e.checkf(false, "direct memo hit %s/%s: %v", c.app, c.cfg, err)
			}
		}
	}) / 1e3
	e.set("harness.memo_hit_us", memoHit, compRounds)
	e.set("server.encode_self_us", median(handler[clsMemo])-memoHit, len(handler[clsMemo]))

	measureWorkspec(e)
	return measureTwin(e, golden)
}

// measureWorkspec times what the spec class pays before it reaches the memo:
// parsing the inline spec, its canonical digest, and compiling it; and the
// trace-replay CSV reader on a synthetic 4096-record trace.
func measureWorkspec(e *env) {
	w, _ := workloads.ByName("BFS")
	spec, err := workspec.FromWorkload(w)
	if !e.checkf(err == nil, "workspec.FromWorkload: %v", err) {
		return
	}
	text := spec.Encode()
	e.set("workspec.parse_us", nsPerOp(compRounds, 50, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := workspec.Parse(text); err != nil {
				e.checkf(false, "workspec.Parse: %v", err)
			}
		}
	})/1e3, compRounds)
	e.set("workspec.digest_us", nsPerOp(compRounds, 50, func(n int) {
		for i := 0; i < n; i++ {
			spec.Digest()
		}
	})/1e3, compRounds)
	e.set("workspec.compile_us", nsPerOp(compRounds, 50, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := spec.Compile(); err != nil {
				e.checkf(false, "Spec.Compile: %v", err)
			}
		}
	})/1e3, compRounds)

	var csv bytes.Buffer
	csv.WriteString("order,warp,pc,addr,size\n")
	for i := 0; i < 4096; i++ {
		fmt.Fprintf(&csv, "%d,%d,0x10,%d,128\n", i, i%32, 1<<32+128*i)
	}
	e.set("workspec.trace_csv_us", nsPerOp(compRounds, 5, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := workspec.ParseTraceCSV(bytes.NewReader(csv.Bytes()), "bench"); err != nil {
				e.checkf(false, "ParseTraceCSV: %v", err)
			}
		}
	})/1e3, compRounds)
}

// resultSink keeps Prediction.Result's value alive, or the compiler drops the
// call.
var resultSink gpu.Result

// measureTwin times the analytical twin on its own and through the harness,
// and states its error against the exact simulator beside those times: the
// mean relative IPC error over the golden matrix, and the share of the matrix
// the auto engine serves from the twin at the default tolerance.
func measureTwin(e *env, golden []namedCell) error {
	model := twin.New()
	w, _ := workloads.ByName("BFS")
	w.Kernel = w.Kernel.Scaled(e.size.serveScale)
	cfg, err := harness.NamedConfig("apres")
	if err != nil {
		return err
	}
	var p *twin.Prediction
	var before, after runtime.MemStats
	const queries = 2000
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < queries; i++ {
		if p, err = model.Predict("BFS", w, cfg); err != nil {
			return err
		}
	}
	predict := time.Since(t0)
	runtime.ReadMemStats(&after)
	e.set("twin.predict_us", us(predict)/queries, queries)
	e.set("twin.allocs_per_query", float64(after.Mallocs-before.Mallocs)/queries, queries)
	e.set("twin.result_us", nsPerOp(compRounds, 200, func(n int) {
		for i := 0; i < n; i++ {
			resultSink = p.Result()
		}
	})/1e3, compRounds)

	// Through the harness, on a Runner without a store, so that every query
	// is a prediction and not a store read.
	ctx := context.Background()
	r, err := newRunner(e.size.serveScale, e.size.sms, nproc(), "")
	if err != nil {
		return err
	}
	twinReq := harness.EngineReq{Engine: harness.EngineTwin}
	e.set("harness.twin_serve_us", nsPerOp(compRounds, 100, func(n int) {
		for i := 0; i < n; i++ {
			c := golden[i%len(golden)]
			if _, err := r.RunEngineNamed(ctx, c.app, c.cfg, false, twinReq, harness.RunOpts{}); err != nil {
				e.checkf(false, "twin %s/%s: %v", c.app, c.cfg, err)
			}
		}
	})/1e3, compRounds)

	exact, err := runMatrix(e, nil, r, golden, inOrder(len(golden)), nproc())
	if err != nil {
		return err
	}
	var sumErr float64
	for i, c := range golden {
		out, err := r.RunEngineNamed(ctx, c.app, c.cfg, false, twinReq, harness.RunOpts{})
		e.op(err == nil)
		if err != nil {
			return err
		}
		want := exact.results[i].IPC()
		sumErr += math.Abs(out.Result.IPC()-want) / want
	}
	e.set("twin.mape_ipc", sumErr/float64(len(golden)), len(golden))

	auto, err := newRunner(e.size.serveScale, e.size.sms, nproc(), "")
	if err != nil {
		return err
	}
	served := 0
	for _, c := range golden {
		out, err := auto.RunEngineNamed(ctx, c.app, c.cfg, false, harness.EngineReq{Engine: harness.EngineAuto}, harness.RunOpts{})
		e.op(err == nil)
		if err != nil {
			return err
		}
		if out.Engine == harness.EngineTwin {
			served++
		}
	}
	e.set("twin.served_ratio", float64(served)/float64(len(golden)), len(golden))
	e.set("harness.twin_escalations", float64(auto.Stats().TwinEscalations), 1)
	return nil
}
