//go:build !race

package relation

const raceEnabled = false
