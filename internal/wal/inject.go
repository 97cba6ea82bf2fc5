package wal

import (
	"io"
	"time"

	"pwsr/internal/fault"
)

// InjectBackend threads the deterministic fault plane (internal/fault)
// into any Backend: every write and sync on every segment handle first
// consults the injector, which may delay the operation, fail it, or —
// for writes — tear it after an accepted prefix. It replaces the
// one-off Write/SyncHook closures MemBackend used to carry, and works
// identically over FileBackend, so the same fault plan drives the
// in-memory crash matrix and a real directory of segments.
type InjectBackend struct {
	// Inner is the wrapped backend.
	Inner Backend
	// Inj is the fault registry consulted at every injection point; nil
	// injects nothing.
	Inj *fault.Injector
	// Site labels this backend's points in the plan (e.g.
	// "wal/primary"), so backends sharing one injector are injected
	// independently.
	Site string
}

// NewInjectBackend wraps inner with injection points labeled site.
func NewInjectBackend(inner Backend, inj *fault.Injector, site string) *InjectBackend {
	return &InjectBackend{Inner: inner, Inj: inj, Site: site}
}

// Create implements Backend.
func (b *InjectBackend) Create(name string) (File, error) {
	f, err := b.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: f, b: b, name: name}, nil
}

// Open implements Backend.
func (b *InjectBackend) Open(name string) (io.ReadCloser, error) { return b.Inner.Open(name) }

// List implements Backend.
func (b *InjectBackend) List() ([]string, error) { return b.Inner.List() }

// Remove implements Backend.
func (b *InjectBackend) Remove(name string) error { return b.Inner.Remove(name) }

// injectFile interposes the injector on one segment handle.
type injectFile struct {
	f    File
	b    *InjectBackend
	name string
}

// Write consults the injector: a torn decision writes the accepted
// prefix through to the inner file (exactly like a torn OS write —
// the bytes are there, the caller sees the failure), an error decision
// writes nothing, and latency sleeps before either.
func (f *injectFile) Write(p []byte) (int, error) {
	d := f.b.Inj.Eval(fault.Point{Site: f.b.Site, Op: fault.OpWrite, File: f.name})
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	if d.Err == nil {
		return f.f.Write(p)
	}
	accept := d.Accept
	if accept < 0 {
		accept = (len(p) + 1) / 2 // half-tear
	}
	if accept > len(p) {
		accept = len(p)
	}
	n := 0
	if accept > 0 {
		// The inner write's own outcome is subordinate to the injected
		// fault; the accepted prefix is whatever actually landed.
		n, _ = f.f.Write(p[:accept])
	}
	return n, d.Err
}

// Sync consults the injector, then syncs through.
func (f *injectFile) Sync() error {
	d := f.b.Inj.Eval(fault.Point{Site: f.b.Site, Op: fault.OpSync, File: f.name})
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	if d.Err != nil {
		return d.Err
	}
	return f.f.Sync()
}

// Close closes the inner handle (never injected: closing is the
// caller's cleanup path, not a durability point).
func (f *injectFile) Close() error { return f.f.Close() }
