package noc

import (
	"testing"
	"unsafe"

	"apres/internal/arch"
	"apres/internal/dram"
	"apres/internal/stats"
)

func resp(sm int, ready int64) dram.Response {
	return dram.Response{Req: arch.MemReq{SM: sm}, ReadyCycle: ready}
}

func TestDeliveryRespectsReadyCycle(t *testing.T) {
	var st stats.Stats
	n := New(2, 1024, &st)
	n.Enqueue(resp(0, 10))
	if got := n.Deliver(0, 5); len(got) != 0 {
		t.Fatalf("delivered %d responses before ready cycle", len(got))
	}
	if got := n.Deliver(0, 10); len(got) != 1 {
		t.Fatalf("delivered %d responses at ready cycle, want 1", len(got))
	}
}

func TestBandwidthLimit(t *testing.T) {
	var st stats.Stats
	// 32 B/cycle = one 128 B line every 4 cycles.
	n := New(1, 32, &st)
	for i := 0; i < 3; i++ {
		n.Enqueue(resp(0, 0))
	}
	delivered := 0
	// Drain any banked credit first (pinning creditCycle so the gap to
	// the next Deliver does not re-bank what we just drained).
	n.sms[0].credit, n.sms[0].creditCycle = 0, 0
	for cyc := int64(1); cyc <= 12; cyc++ {
		delivered += len(n.Deliver(0, cyc))
	}
	if delivered != 3 {
		t.Fatalf("delivered %d over 12 cycles at 1 line/4cyc, want 3", delivered)
	}
	// Verify pacing: nothing can be delivered in back-to-back cycles
	// with empty credit.
	n.Enqueue(resp(0, 0))
	n.Enqueue(resp(0, 0))
	n.sms[0].credit, n.sms[0].creditCycle = 0, 99
	first := len(n.Deliver(0, 100)) + len(n.Deliver(0, 101)) + len(n.Deliver(0, 102))
	if first > 1 {
		t.Fatalf("delivered %d lines in 3 cycles at 32 B/cycle, want <=1", first)
	}
}

func TestCreditCap(t *testing.T) {
	var st stats.Stats
	n := New(1, 1024, &st)
	// A long idle period must not bank unlimited credit.
	for cyc := int64(0); cyc < 1000; cyc++ {
		n.Deliver(0, cyc)
	}
	if n.sms[0].credit > maxCreditLines*arch.LineSizeBytes {
		t.Fatalf("credit %d exceeds cap", n.sms[0].credit)
	}
}

func TestPerSMIsolation(t *testing.T) {
	var st stats.Stats
	n := New(2, 1024, &st)
	n.Enqueue(resp(0, 0))
	n.Enqueue(resp(1, 0))
	if got := n.Deliver(0, 1); len(got) != 1 || got[0].Req.SM != 0 {
		t.Fatalf("SM0 delivery wrong: %+v", got)
	}
	if got := n.Deliver(1, 1); len(got) != 1 || got[0].Req.SM != 1 {
		t.Fatalf("SM1 delivery wrong: %+v", got)
	}
	if n.Pending() {
		t.Fatal("all responses delivered but Pending() is true")
	}
}

func TestTrafficCounting(t *testing.T) {
	var st stats.Stats
	n := New(1, 1024, &st)
	n.Enqueue(resp(0, 0))
	n.Enqueue(resp(0, 0))
	n.Deliver(0, 1)
	// Delivered traffic accumulates per SM (so workers can deliver
	// concurrently) and only reaches the shared stats block at FlushStats.
	if st.BytesToSM != 0 {
		t.Fatalf("BytesToSM = %d before FlushStats, want 0", st.BytesToSM)
	}
	n.FlushStats()
	if st.BytesToSM != 2*arch.LineSizeBytes {
		t.Fatalf("BytesToSM = %d, want %d", st.BytesToSM, 2*arch.LineSizeBytes)
	}
	// FlushStats drains the accumulators: flushing again must not double
	// count.
	n.FlushStats()
	if st.BytesToSM != 2*arch.LineSizeBytes {
		t.Fatalf("BytesToSM = %d after second flush, want %d", st.BytesToSM, 2*arch.LineSizeBytes)
	}
}

// TestCreditBankingAcrossGaps pins the event-driven contract: calling
// Deliver only at sparse cycles must bank exactly the credit a
// cycle-by-cycle caller would have accrued (capped), so skipping idle
// cycles cannot change delivery timing.
func TestCreditBankingAcrossGaps(t *testing.T) {
	var stA, stB stats.Stats
	// 32 B/cycle: one 128 B line per 4 cycles, cap 4 lines (16 cycles).
	perCycle := New(1, 32, &stA)
	gapped := New(1, 32, &stB)
	for i := 0; i < 6; i++ {
		perCycle.Enqueue(resp(0, 5))
		gapped.Enqueue(resp(0, 5))
	}
	// The per-cycle caller visits every cycle; the gapped caller jumps
	// straight to the cycles NextDeliveryCycle reports, exactly as the
	// event-driven loop does.
	var gotA, gotB []int64
	for cyc := int64(0); cyc <= 40; cyc++ {
		for range perCycle.Deliver(0, cyc) {
			gotA = append(gotA, cyc)
		}
	}
	for cyc := int64(0); gapped.Pending(); {
		for range gapped.Deliver(0, cyc) {
			gotB = append(gotB, cyc)
		}
		next := gapped.NextDeliveryCycle(cyc)
		if gapped.Pending() && next <= cyc {
			t.Fatalf("NextDeliveryCycle(%d) = %d with responses pending", cyc, next)
		}
		cyc = next
	}
	if len(gotA) != 6 || len(gotB) != 6 {
		t.Fatalf("delivered per-cycle=%d gapped=%d lines, want 6 each", len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("delivery %d: per-cycle at %d, gapped at %d", i, gotA[i], gotB[i])
		}
	}
	// A very long gap must still saturate at the cap, not overflow.
	gapped.Enqueue(resp(0, 0))
	if got := gapped.Deliver(0, 1<<60); len(got) != 1 {
		t.Fatalf("delivered %d after huge gap, want 1", len(got))
	}
	if gapped.sms[0].credit > maxCreditBytes {
		t.Fatalf("credit %d exceeds cap after huge gap", gapped.sms[0].credit)
	}
}

// TestPendingCounter checks the O(1) pending counter against queue state
// through interleaved enqueues and partial deliveries.
func TestPendingCounter(t *testing.T) {
	var st stats.Stats
	n := New(2, 32, &st) // 1 line / 4 cycles so drains are partial
	if n.Pending() {
		t.Fatal("empty network reports Pending")
	}
	n.Enqueue(resp(0, 0))
	n.Enqueue(resp(0, 0))
	n.Enqueue(resp(1, 0))
	left := 3
	for cyc := int64(0); cyc < 20 && n.Pending(); cyc++ {
		left -= len(n.Deliver(0, cyc)) + len(n.Deliver(1, cyc))
		if (left > 0) != n.Pending() {
			t.Fatalf("cycle %d: %d undelivered but Pending()=%v", cyc, left, n.Pending())
		}
	}
	if left != 0 || n.Pending() {
		t.Fatalf("after drain: left=%d Pending=%v", left, n.Pending())
	}
}

// TestNextDeliveryCycle checks the skip bound: it must never be later than
// the first cycle a per-cycle caller would see a delivery.
func TestNextDeliveryCycle(t *testing.T) {
	var st stats.Stats
	n := New(2, 32, &st)
	if got := n.NextDeliveryCycle(0); got != -1 {
		t.Fatalf("empty network NextDeliveryCycle = %d, want -1", got)
	}
	// SM0's head is ready far in the future with credit already full.
	n.Enqueue(resp(0, 100))
	n.Deliver(0, 20) // banks credit to the cap
	if got := n.NextDeliveryCycle(20); got != 100 {
		t.Fatalf("NextDeliveryCycle = %d, want 100 (ready bound)", got)
	}
	// SM1's head is long ready but the SM is credit-starved: its bound is
	// the credit refill, and it wins the cross-SM minimum.
	n.Enqueue(resp(1, 0))
	n.sms[1].credit, n.sms[1].creditCycle = 0, 20
	next := n.NextDeliveryCycle(20)
	if next != 24 { // 128 B deficit at 32 B/cycle from cycle 20
		t.Fatalf("NextDeliveryCycle = %d, want 24 (credit bound)", next)
	}
	if got := n.Deliver(1, next-1); len(got) != 0 {
		t.Fatalf("delivered %d before the reported bound", len(got))
	}
	if got := n.Deliver(1, next); len(got) != 1 {
		t.Fatalf("delivered %d at the reported bound, want 1", len(got))
	}
}

// TestPerSMStateFillsWholeLines guards the layout the parallel engine leans
// on: each SM's queue, credit and byte counter occupy their own cache
// line(s), so workers delivering to neighbouring SMs never write one line.
func TestPerSMStateFillsWholeLines(t *testing.T) {
	if sz := unsafe.Sizeof(smSlot{}); sz%cacheLine != 0 {
		t.Fatalf("smSlot is %d bytes, not a multiple of the %d-byte line", sz, cacheLine)
	}
}
