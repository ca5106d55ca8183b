package main

import (
	"io"
	"sync"
	"time"

	"repro/internal/artifact"
)

// countingStore wraps the program's disk artifact store and counts what the
// run asks of it: hits, misses, bytes persisted, and the time spent creating
// campaigns (simulation plus windowing). It forwards the raw-file seam, so
// the program takes the same load path it takes on a bare disk store.
type countingStore struct {
	inner artifact.FileStore
	tr    *tracer // set before the run that uses the store; nil when untraced

	mu       sync.Mutex
	parent   int // span the store's own spans hang under
	hits     int64
	misses   int64
	bytes    int64
	genTime  time.Duration
	created  map[artifact.Key]bool // keys this run persisted
	coldHits int64                 // hits on keys this run never created
}

var _ artifact.FileStore = (*countingStore)(nil)

func newCountingStore(inner artifact.FileStore) *countingStore {
	return &countingStore{inner: inner, created: map[artifact.Key]bool{}}
}

// setParent makes later store spans children of span id.
func (c *countingStore) setParent(id int) {
	c.mu.Lock()
	c.parent = id
	c.mu.Unlock()
}

func (c *countingStore) wrapCreate(key artifact.Key, create func() error) func() error {
	return func() error {
		c.mu.Lock()
		parent := c.parent
		c.mu.Unlock()
		sp := c.tr.begin("artifact.create."+key.Kind, parent, "", 0)
		t0 := time.Now()
		err := create()
		d := time.Since(t0)
		c.tr.end(sp)
		if key.Kind == "campaign" {
			c.mu.Lock()
			c.genTime += d
			c.mu.Unlock()
		}
		return err
	}
}

func (c *countingStore) wrapEncode(key artifact.Key, encode func(io.Writer) error) func(io.Writer) error {
	return func(w io.Writer) error {
		cw := &countWriter{w: w}
		err := encode(cw)
		c.tr.add("artifact."+key.Kind+".bytes", cw.n)
		c.mu.Lock()
		c.bytes += cw.n
		if err == nil {
			c.created[key] = true
		}
		c.mu.Unlock()
		return err
	}
}

func (c *countingStore) count(key artifact.Key, hit bool) {
	if hit {
		c.tr.add("artifact."+key.Kind+".hits", 1)
	} else {
		c.tr.add("artifact."+key.Kind+".misses", 1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !hit {
		c.misses++
		return
	}
	c.hits++
	if !c.created[key] {
		c.coldHits++
	}
}

// GetOrCreate implements artifact.Store.
func (c *countingStore) GetOrCreate(key artifact.Key, decode func(io.Reader) error, create func() error, encode func(io.Writer) error) (bool, error) {
	hit, err := c.inner.GetOrCreate(key, decode, c.wrapCreate(key, create), c.wrapEncode(key, encode))
	c.count(key, hit)
	return hit, err
}

// GetOrCreateFile implements artifact.FileStore.
func (c *countingStore) GetOrCreateFile(key artifact.Key, load func(path string, payloadOff int64) error, create func() error, encode func(io.Writer) error) (bool, error) {
	hit, err := c.inner.GetOrCreateFile(key, load, c.wrapCreate(key, create), c.wrapEncode(key, encode))
	c.count(key, hit)
	return hit, err
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
