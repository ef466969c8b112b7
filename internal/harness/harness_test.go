package harness

import (
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"apres/internal/config"
	"apres/internal/gpu"
)

// testRunner returns a heavily scaled-down runner so harness tests stay
// fast; experiment SHAPE assertions live in the full-scale benches.
func testRunner() *Runner { return NewRunner(0.08, 2) }

func TestNamedConfig(t *testing.T) {
	// The special names.
	specials := map[string]func(config.Config) bool{
		"base": func(c config.Config) bool { return c.Scheduler == config.SchedLRR && c.Prefetcher == config.PrefNone },
		"apres": func(c config.Config) bool {
			return c.Scheduler == config.SchedLAWS && c.Prefetcher == config.PrefSAP && c.APRESCoupling
		},
		"l1-32mb": func(c config.Config) bool { return c.L1SizeBytes == 32<<20 && c.Scheduler == config.SchedLRR },
	}
	for name, check := range specials {
		c, err := NamedConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !check(c) {
			t.Errorf("%s resolved wrong: %+v", name, c)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}

	// The full documented scheduler x prefetcher matrix.
	scheds := map[string]config.SchedulerKind{
		"lrr": config.SchedLRR, "gto": config.SchedGTO,
		"twolevel": config.SchedTwoLevel, "ccws": config.SchedCCWS,
		"mascar": config.SchedMASCAR, "pa": config.SchedPA,
		"laws": config.SchedLAWS,
	}
	prefs := map[string]config.PrefetcherKind{
		"": config.PrefNone, "str": config.PrefSTR, "sld": config.PrefSLD,
	}
	for sname, sched := range scheds {
		for pname, pref := range prefs {
			name := sname
			if pname != "" {
				name += "+" + pname
			}
			c, err := NamedConfig(name)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if c.Scheduler != sched || c.Prefetcher != pref {
				t.Errorf("%s resolved to %s+%s, want %s+%s", name, c.Scheduler, c.Prefetcher, sched, pref)
			}
			if c.APRESCoupling {
				t.Errorf("%s enabled APRES coupling", name)
			}
			if err := c.Validate(); err != nil {
				t.Errorf("%s invalid: %v", name, err)
			}
		}
	}

	// Error paths: unknown scheduler, unknown prefetcher, malformed names.
	for _, bad := range []string{
		"", "nope", "sap", "laws+nope", "ccws+nope", "laws+sap",
		"+str", "gto+", "a+b+c", "laws+str+sld", "BASE", "apres+str",
	} {
		if _, err := NamedConfig(bad); err == nil {
			t.Errorf("NamedConfig(%q) accepted", bad)
		}
	}
}

func TestRunnerCaches(t *testing.T) {
	r := testRunner()
	a, err := r.Run("SP", "base")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("SP", "base")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatal("cached run differs")
	}
	if _, err := r.Run("NOPE", "base"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := r.Run("SP", "nope"); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestSeriesMeanAndChartRender(t *testing.T) {
	s := Series{Name: "x", Values: map[string]float64{"A": 1, "B": 3}}
	if got := s.Mean([]string{"A", "B"}); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
	c := &Chart{Title: "T", Apps: []string{"A", "B"}, Series: []Series{s}}
	out := c.Render()
	for _, want := range []string{"T", "A", "B", "MEAN", "2.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, ok := c.SeriesByName("x"); !ok {
		t.Fatal("SeriesByName failed")
	}
	if _, ok := c.SeriesByName("y"); ok {
		t.Fatal("SeriesByName found ghost")
	}
}

func TestAppLists(t *testing.T) {
	if len(AllApps()) != 15 {
		t.Fatal("AllApps should have 15")
	}
	if len(MemoryIntensiveApps()) != 10 {
		t.Fatal("MemoryIntensiveApps should have 10")
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	h := TableII(config.APRES())
	if h.LLTBytes != 192 {
		t.Errorf("LLT = %d B, want 192 (4B x 48)", h.LLTBytes)
	}
	if h.WGTBytes != 18 {
		t.Errorf("WGT = %d B, want 18 (48b x 3)", h.WGTBytes)
	}
	if h.DRQBytes != 256 {
		t.Errorf("DRQ = %d B, want 256 (8B x 32)", h.DRQBytes)
	}
	if h.WQBytes != 48 {
		t.Errorf("WQ = %d B, want 48 (1B x 48)", h.WQBytes)
	}
	if h.PTBytes != 210 {
		t.Errorf("PT = %d B, want 210 (21B x 10)", h.PTBytes)
	}
	if h.Total() != 724 {
		t.Errorf("total = %d B, want the paper's 724", h.Total())
	}
	out := RenderTableII(h)
	if !strings.Contains(out, "724") {
		t.Errorf("render missing total:\n%s", out)
	}
}

func TestTableIProducesRows(t *testing.T) {
	r := testRunner()
	rows, err := r.TableI([]string{"KM"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("KM should have exactly one load row, got %d", len(rows))
	}
	row := rows[0]
	if row.PC != 0xE8 {
		t.Errorf("KM PC = %#x, want 0xE8", row.PC)
	}
	if row.PctLoad < 0.99 {
		t.Errorf("KM %%Load = %v, want ~1.0 (single load)", row.PctLoad)
	}
	if row.Stride != 4352 {
		t.Errorf("KM stride = %d, want 4352", row.Stride)
	}
	out := RenderTableI(rows)
	if !strings.Contains(out, "KM") || !strings.Contains(out, "4352") {
		t.Errorf("render missing fields:\n%s", out)
	}
}

func TestFig2SmallScale(t *testing.T) {
	r := testRunner()
	c, err := r.Fig2([]string{"SP"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Series) != 5 {
		t.Fatalf("Fig2 series = %d, want 5", len(c.Series))
	}
	bCold, _ := c.SeriesByName("B cold")
	bCap, _ := c.SeriesByName("B cap+conf")
	total := bCold.Values["SP"] + bCap.Values["SP"]
	if total < 0 || total > 1 {
		t.Fatalf("miss fractions out of range: %v", total)
	}
}

func TestFig10And12Run(t *testing.T) {
	r := testRunner()
	apps := []string{"SP"}
	c10, err := r.Fig10(apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(c10.Series) != 5 {
		t.Fatalf("Fig10 series = %d, want 5", len(c10.Series))
	}
	for _, s := range c10.Series {
		if s.Values["SP"] <= 0 {
			t.Fatalf("series %s has non-positive speedup", s.Name)
		}
	}
	c12, err := r.Fig12(apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c12.Series {
		v := s.Values["SP"]
		if v < 0 || v > 1 {
			t.Fatalf("early eviction ratio %v out of [0,1]", v)
		}
	}
}

func TestFig11FractionsSumToOne(t *testing.T) {
	r := testRunner()
	c, err := r.Fig11([]string{"SP"})
	if err != nil {
		t.Fatal(err)
	}
	// For each configuration letter, the four components must sum to ~1
	// (all accesses are hits or misses).
	for _, fc := range Fig11Configs {
		sum := 0.0
		for _, comp := range []string{"hitH", "hitM", "cold", "cap+c"} {
			s, ok := c.SeriesByName(fc.Letter + " " + comp)
			if !ok {
				t.Fatalf("missing series %s %s", fc.Letter, comp)
			}
			sum += s.Values["SP"]
		}
		if sum < 0.98 || sum > 1.02 {
			t.Fatalf("%s: breakdown sums to %v, want ~1", fc.Letter, sum)
		}
	}
}

func TestFig13To15Normalised(t *testing.T) {
	r := testRunner()
	apps := []string{"SP"}
	for name, f := range map[string]func([]string) (*Chart, error){
		"fig13": r.Fig13, "fig14": r.Fig14, "fig15": r.Fig15,
	} {
		c, err := f(apps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range c.Series {
			if v := s.Values["SP"]; v <= 0 || v > 5 {
				t.Fatalf("%s %s: normalised value %v implausible", name, s.Name, v)
			}
		}
	}
}

// TestConfigSensitivity keeps three properties of the timing model that the
// paper's motivation rests on, each checked on inline-config cells through
// Runner.Do: KM's L1 hit rate does not fall as the L1 grows (Figure 2's
// axis), NW gets faster with more MSHRs, and statically throttling KM's
// warps raises its hit rate (what CCWS does dynamically). A cell Do cannot
// name — unknown workload or configuration, invalid inline point — is an
// error.
func TestConfigSensitivity(t *testing.T) {
	hitRate := func(r gpu.Result) float64 { return r.Total.L1HitRate() }
	speed := func(r gpu.Result) float64 { return 1 / float64(r.Cycles) }
	for _, c := range []struct {
		name, app string
		scale     float64
		sms       int
		set       func(*config.Config, int)
		points    []int
		metric    func(gpu.Result) float64
		strict    bool // each point must beat the last, not just match it
	}{
		{"KM/L1SizeKB", "KM", 0.15, 4, func(c *config.Config, v int) { c.L1SizeBytes = v * 1024 }, []int{32, 256, 2048}, hitRate, false},
		{"NW/L1MSHRs", "NW", 0.1, 2, func(c *config.Config, v int) { c.L1MSHRs = v }, []int{4, 64}, speed, true},
		{"KM/WarpsPerSM", "KM", 0.15, 2, func(c *config.Config, v int) { c.WarpsPerSM = v }, []int{48, 8}, hitRate, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("simulates every point")
			}
			r := NewRunner(c.scale, c.sms)
			var prev float64
			for i, v := range c.points {
				cfg := config.Baseline()
				c.set(&cfg, v)
				res, err := result(r.Do(context.Background(), Request{Workload: c.app, Inline: cfg}))
				if err != nil {
					t.Fatal(err)
				}
				m := c.metric(res)
				t.Logf("%d: %g", v, m)
				if i > 0 && (m < prev || c.strict && m == prev) {
					t.Errorf("%s at %d: %g, not better than %g at %d", c.name, v, m, prev, c.points[i-1])
				}
				prev = m
			}
		})
	}
	t.Run("errors", func(t *testing.T) {
		bad := config.Baseline()
		bad.L1SizeBytes = 0
		for _, req := range []Request{
			{Workload: "NOPE", Config: "base"},
			{Workload: "KM", Config: "nope"},
			{Workload: "KM", Inline: bad},
		} {
			if _, err := testRunner().Do(context.Background(), req); err == nil {
				t.Errorf("%+v accepted", req)
			}
		}
	})
}

// TestRunnerRunSurface keeps the run path single: Do, and the three
// one-expression wrappers the figures and the benchmark compile against.
// A new Run*, Memoised* or *StoreKey method fails here.
func TestRunnerRunSurface(t *testing.T) {
	re := regexp.MustCompile(`^(Do|Run|Memoised)|StoreKey$`)
	var got []string
	typ := reflect.TypeOf(&Runner{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; re.MatchString(name) {
			got = append(got, name)
		}
	}
	want := []string{"Do", "Run", "RunEngineNamed", "RunNamed"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Runner's run/peek/key methods = %v, want exactly %v", got, want)
	}
}

// TestRunnerFields keeps the Runner's knobs fixed. A run whose configuration
// differs is a different cell, named by an inline configuration's digest, so
// a new field on the run path fails here.
func TestRunnerFields(t *testing.T) {
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Runner{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	want := []string{"Scale", "SMs", "Jobs", "SMJobs", "Store", "EngineDefault", "EngineTolerance"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Runner's exported fields = %v, want exactly %v", got, want)
	}
}
