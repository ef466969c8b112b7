package harness

import (
	"flag"
	"fmt"

	"apres/internal/resultstore"
)

// Flags is the part of the command line the binaries share: the settings
// that become a Runner, the profile outputs (for profiling.Start), and
// -version. Each binary registers the flags it has under its own help text,
// then builds its Runner from them once.
type Flags struct {
	Scale                  float64
	SMs, Jobs, SMJobs      int
	Store, Engine          string
	Tolerance              float64
	CPUProfile, MemProfile string
	Version                bool
}

// Register declares the shared flags on fs: -version always, the two
// profile outputs when profiles is set (the daemon has none), and each flag
// that usage names, with the help text given for it — the binaries word a
// few of them differently. -store defaults to the field's current value (the
// daemon has a default store, the CLIs have none); the other defaults are
// the same everywhere.
func (f *Flags) Register(fs *flag.FlagSet, profiles bool, usage map[string]string) {
	fs.BoolVar(&f.Version, "version", false, "print the simulator version stamp and exit")
	if profiles {
		fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
		fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof allocation profile to this file on exit")
	}
	for name, help := range usage {
		switch name {
		case "scale":
			fs.Float64Var(&f.Scale, name, 1, help)
		case "sms":
			fs.IntVar(&f.SMs, name, 0, help)
		case "jobs":
			fs.IntVar(&f.Jobs, name, 0, help)
		case "smjobs":
			fs.IntVar(&f.SMJobs, name, 0, help)
		case "store":
			fs.StringVar(&f.Store, name, f.Store, help)
		case "engine":
			fs.StringVar(&f.Engine, name, "", help)
		case "tolerance":
			fs.Float64Var(&f.Tolerance, name, 0, help)
		default:
			panic("harness: no shared flag -" + name)
		}
	}
}

// Runner validates the engine flags and builds the Runner the flags
// describe: -engine and -tolerance become its defaults, and a -store
// directory is opened with an in-memory front of storeLRU entries.
func (f *Flags) Runner(storeLRU int) (*Runner, error) {
	if _, err := ParseEngine(f.Engine); err != nil {
		return nil, err
	}
	if f.Tolerance < 0 {
		return nil, fmt.Errorf("-tolerance must be >= 0, got %g", f.Tolerance)
	}
	r := NewRunner(f.Scale, f.SMs)
	r.Jobs, r.SMJobs = f.Jobs, f.SMJobs
	r.EngineDefault, r.EngineTolerance = f.Engine, f.Tolerance
	if f.Store != "" {
		st, err := resultstore.Open(f.Store, storeLRU)
		if err != nil {
			return nil, err
		}
		r.Store = st
	}
	return r, nil
}
