package trace

// RecordsCap returns the capacity of b's backing records, for the
// footprint test in the external test package.
func RecordsCap(b *Buffer) int { return cap(b.records) }
