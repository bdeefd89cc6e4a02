//go:build race

package bufpool

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a random share of Puts, so allocation counts of
// pooled paths are not meaningful.
const raceEnabled = true
