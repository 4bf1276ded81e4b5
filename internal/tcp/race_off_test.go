//go:build !race

package tcp

// raceEnabled reports whether the race detector instruments this build;
// allocation ceilings skip under it, since it changes what allocates.
const raceEnabled = false
