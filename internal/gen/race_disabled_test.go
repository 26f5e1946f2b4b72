//go:build !race

package gen

const raceEnabled = false
