//go:build race

package gpu

// raceEnabled reports that the race detector is active: wall-clock gates
// skip themselves, since instrumentation distorts the timings they compare.
const raceEnabled = true
