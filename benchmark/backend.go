package main

import (
	"fmt"
	"io"
	"sync"

	"pwsr/internal/wal"
)

// countingBackend wraps a wal.Backend at the device boundary. It counts
// writes and syncs, times them when a tracer is attached, and tracks
// how much of each segment has been synced, so a crash image can be
// cut by discarding the bytes no Sync covered. Killing the process
// would not do that: the operating system's cache keeps unsynced writes.
type countingBackend struct {
	inner wal.Backend
	t     *tracer // nil in the untraced run

	mu         sync.Mutex
	segs       map[string]*segLen
	writes     int64
	writeBytes int64
	syncs      int64
}

// segLen is one live segment's written and synced length in bytes.
type segLen struct{ written, synced int64 }

func newCountingBackend(inner wal.Backend, t *tracer) *countingBackend {
	return &countingBackend{inner: inner, t: t, segs: make(map[string]*segLen)}
}

func (b *countingBackend) Create(name string) (wal.File, error) {
	if b.t != nil {
		b.t.begin(spBackendCreate)
		defer b.t.end()
	}
	f, err := b.inner.Create(name)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	seg := &segLen{}
	b.segs[name] = seg
	b.mu.Unlock()
	return &countingFile{File: f, b: b, seg: seg}, nil
}

func (b *countingBackend) Open(name string) (io.ReadCloser, error) { return b.inner.Open(name) }

func (b *countingBackend) List() ([]string, error) { return b.inner.List() }

func (b *countingBackend) Remove(name string) error {
	if b.t != nil {
		b.t.begin(spBackendRemove)
		defer b.t.end()
	}
	err := b.inner.Remove(name)
	if err == nil {
		b.mu.Lock()
		delete(b.segs, name)
		b.mu.Unlock()
	}
	return err
}

// crashImage returns what a machine crash right now would leave on the
// device: every live segment truncated to its synced length.
func (b *countingBackend) crashImage() (map[string][]byte, error) {
	b.mu.Lock()
	synced := make(map[string]int64, len(b.segs))
	for name, seg := range b.segs {
		synced[name] = seg.synced
	}
	b.mu.Unlock()
	image := make(map[string][]byte, len(synced))
	for name, n := range synced {
		r, err := b.inner.Open(name)
		if err != nil {
			return nil, fmt.Errorf("crash image: %w", err)
		}
		data, err := io.ReadAll(io.LimitReader(r, n))
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("crash image: read %s: %w", name, err)
		}
		if int64(len(data)) != n {
			return nil, fmt.Errorf("crash image: %s holds %d bytes, %d were synced", name, len(data), n)
		}
		image[name] = data
	}
	return image, nil
}

// restore loads a crash image into a fresh in-memory backend.
func restore(image map[string][]byte) *wal.MemBackend {
	mb := wal.NewMemBackend()
	for name, data := range image {
		mb.Put(name, data)
	}
	return mb
}

type countingFile struct {
	wal.File
	b   *countingBackend
	seg *segLen
}

func (f *countingFile) Write(p []byte) (int, error) {
	if f.b.t != nil {
		f.b.t.begin(spBackendWrite)
		defer f.b.t.end()
	}
	n, err := f.File.Write(p)
	f.b.mu.Lock()
	f.b.writes++
	f.b.writeBytes += int64(n)
	f.seg.written += int64(n)
	f.b.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	if f.b.t != nil {
		f.b.t.begin(spBackendSync)
		defer f.b.t.end()
	}
	err := f.File.Sync()
	if err == nil {
		f.b.mu.Lock()
		f.b.syncs++
		f.seg.synced = f.seg.written
		f.b.mu.Unlock()
	}
	return err
}
