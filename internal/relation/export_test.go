package relation

// RowProbes returns how many Δ rows a Stored has been probed for by key,
// across the process (rowProbes).
func RowProbes() int64 { return rowProbes.Load() }
