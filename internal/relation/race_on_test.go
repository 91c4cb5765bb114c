//go:build race

package relation

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so exact allocation counts of pooled code do not hold.
const raceEnabled = true
