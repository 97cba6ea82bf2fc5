package core

// ProbeStats is kept for benchmark/pipeline.go:179 until ROADMAP item
// 8; always zero.
type ProbeStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// ProbeStats returns the zero value. Kept for benchmark/pipeline.go:179
// until ROADMAP item 8; always zero.
func (m *Monitor) ProbeStats() ProbeStats { return ProbeStats{} }
