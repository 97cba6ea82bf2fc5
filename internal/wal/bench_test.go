package wal_test

import (
	"fmt"
	"runtime"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// writeCounter counts the writes a backend's segment handles receive.
type writeCounter struct {
	wal.Backend
	writes int64
}

func (b *writeCounter) Create(name string) (wal.File, error) {
	f, err := b.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &countedFile{File: f, n: &b.writes}, nil
}

type countedFile struct {
	wal.File
	n *int64
}

func (f *countedFile) Write(p []byte) (int, error) {
	*f.n++
	return f.File.Write(p)
}

// steadyStream feeds a writer transactions of 64 observes each, every
// one committed and reclaimed by the compaction pass that follows, so
// the surviving stream — and, with snapshot cuts, the mirror — stays
// bounded however long it runs.
type steadyStream struct {
	w         *wal.Writer
	i         int
	reclaimed []int
}

func (s *steadyStream) next() {
	id := s.i/64 + 1
	s.w.LogObserve(txn.W(id, walItems[s.i%len(walItems)], int64(s.i)))
	if s.i%64 == 63 {
		s.w.LogCommit(id)
		s.reclaimed[0] = id
		s.w.LogCompact(s.reclaimed, core.CompactStats{}, 0)
	}
	s.i++
}

// BenchmarkWriterAppend measures the journal's append path alone, per
// logged record: wall time, backend writes and allocations, on the
// in-memory backend and on files, syncing every record and every
// sixteen commits (the end-to-end benchmark's durable workload runs
// 16). A snapshot is cut every 16 compaction passes, so cut cost is
// included at one per 1 024 observes.
func BenchmarkWriterAppend(b *testing.B) {
	for _, backend := range []string{"mem", "file"} {
		for _, group := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/g%d", backend, group), func(b *testing.B) {
				var inner wal.Backend = wal.NewMemBackend()
				if backend == "file" {
					fb, err := wal.NewFileBackend(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					inner = fb
				}
				cb := &writeCounter{Backend: inner}
				w, err := wal.NewWriter(cb, wal.Options{GroupEvery: group, SnapshotEvery: 16})
				if err != nil {
					b.Fatal(err)
				}
				s := &steadyStream{w: w, reclaimed: make([]int, 1)}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mallocs := ms.Mallocs
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.next()
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				records := float64(w.Stats().Records)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
				b.ReportMetric(float64(cb.writes)/records, "writes/record")
				b.ReportMetric(float64(ms.Mallocs-mallocs)/records, "allocs/record")
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// TestZeroAllocWriterAppend pins the steady-state LogObserve path:
// appending copies into the mirror and a flush hands the backend a
// slice of it, so the only allocations are the amortized growth of the
// mirror, the surviving stream and the backend's storage — under 0.1
// per record with a flush every record and every sixteen alike, where
// one allocation per flush or per record would show.
func TestZeroAllocWriterAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const n = 1 << 14
	for _, group := range []int{1, 16} {
		w, err := wal.NewWriter(wal.NewMemBackend(), wal.Options{GroupEvery: group, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(1, func() {
			for range n {
				w.LogObserve(txn.W(1+i%4, walItems[i%len(walItems)], int64(i)))
				i++
			}
		})
		if per := allocs / n; per > 0.1 {
			t.Errorf("GroupEvery %d: LogObserve allocates %.3f per record, want <= 0.1", group, per)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
