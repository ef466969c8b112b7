//go:build race

package harness

// raceEnabled reports that the race detector is active: allocation budgets
// skip themselves, since under it sync.Pool drops items at random.
const raceEnabled = true
