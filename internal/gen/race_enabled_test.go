//go:build race

package gen

// raceEnabled reports that the race detector is compiled in; the
// full-size golden rows skip under it.
const raceEnabled = true
