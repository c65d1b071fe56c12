package quadtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"mlq/internal/geom"
)

// Serialization lets a trained cost model be persisted in the catalog and
// reloaded at optimizer startup, so the model's knowledge survives restarts.
// The format is a compact private binary encoding (little-endian), versioned
// so it can evolve.
//
// The frame layout is unchanged from the pre-arena implementation: a header,
// the region bounds, then the nodes depth-first with each node's children
// written in creation order. Because the arena enumerates children by
// creation stamp (see arena.go), a tree built by the same insert sequence
// emits byte-identical frames to the pointer-linked implementation, and
// pre-arena catalogs load unchanged — Read creates children in file order,
// which reconstructs creation order exactly.

const (
	serialMagic   = 0x4d4c5154 // "MLQT"
	serialVersion = 1
)

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	return writeArena(w, &t.a, t.cfg, t.thSSE, t.inserts, t.compressions, t.removedNodes)
}

// writeArena is the shared encoder behind Tree.WriteTo and Snapshot.WriteTo.
// It only reads the arena, so concurrent use on an immutable snapshot is
// safe; the creation-order scratch is local for the same reason.
func writeArena(w io.Writer, a *arena, cfg Config, thSSE float64, inserts, compressions, removedNodes int64) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	d := cfg.Region.Dims()
	if err := write(
		uint32(serialMagic), uint32(serialVersion), uint32(d),
		uint32(cfg.Strategy), uint32(cfg.Policy), uint32(cfg.MaxDepth), uint32(cfg.Beta),
		cfg.Alpha, cfg.Gamma,
		uint64(cfg.MemoryLimit), uint64(cfg.NodeBytes),
		thSSE, inserts, compressions, removedNodes,
	); err != nil {
		return cw.n, err
	}
	for i := 0; i < d; i++ {
		if err := write(cfg.Region.Lo[i], cfg.Region.Hi[i]); err != nil {
			return cw.n, err
		}
	}
	var scratch []kidRef
	var rec func(n int32) error
	rec = func(n int32) error {
		nd := &a.nodes[n]
		if err := write(nd.sum, nd.ss, nd.count, uint32(nd.kidLen)); err != nil {
			return err
		}
		base := len(scratch)
		scratch = a.creationOrder(n, scratch)
		for i := base; i < len(scratch); i++ {
			c := scratch[i]
			if err := write(c.idx); err != nil {
				return err
			}
			if err := rec(c.ref); err != nil {
				return err
			}
		}
		scratch = scratch[:base]
		return nil
	}
	if err := rec(0); err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// Read deserializes a tree previously written with WriteTo.
func Read(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	read := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	var magic, version, dims, strategy, policy, maxDepth, beta uint32
	var alpha, gamma, thSSE float64
	var memLimit, nodeBytes uint64
	var inserts, compressions, removed int64
	if err := read(&magic, &version, &dims, &strategy, &policy, &maxDepth, &beta,
		&alpha, &gamma, &memLimit, &nodeBytes,
		&thSSE, &inserts, &compressions, &removed); err != nil {
		return nil, fmt.Errorf("quadtree: reading header: %w", err)
	}
	if magic != serialMagic {
		return nil, fmt.Errorf("quadtree: bad magic %#x", magic)
	}
	if version != serialVersion {
		return nil, fmt.Errorf("quadtree: unsupported version %d", version)
	}
	if dims == 0 || dims > 20 {
		return nil, fmt.Errorf("quadtree: corrupt dimension count %d", dims)
	}
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for i := range lo {
		if err := read(&lo[i], &hi[i]); err != nil {
			return nil, fmt.Errorf("quadtree: reading region: %w", err)
		}
	}
	region, err := geom.NewRect(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("quadtree: corrupt region: %w", err)
	}
	t, err := New(Config{
		Region:      region,
		Strategy:    Strategy(strategy),
		Policy:      CompressionPolicy(policy),
		MaxDepth:    int(maxDepth),
		Alpha:       alpha,
		Beta:        int(beta),
		Gamma:       gamma,
		MemoryLimit: int(memLimit),
		NodeBytes:   int(nodeBytes),
	})
	if err != nil {
		return nil, err
	}
	t.thSSE = thSSE
	t.inserts = inserts
	t.compressions = compressions
	t.removedNodes = removed

	// Decode depth-first into the arena. Children are created in file
	// order, so their stamps reproduce the writer's creation order; spans
	// are maintained index-sorted by addChild as always.
	var rec func(n int32, depth int) error
	rec = func(n int32, depth int) error {
		var kids uint32
		nd := &t.a.nodes[n]
		if err := read(&nd.sum, &nd.ss, &nd.count, &kids); err != nil {
			return fmt.Errorf("quadtree: reading node: %w", err)
		}
		if kids > uint32(t.a.full) {
			return fmt.Errorf("quadtree: node claims %d children, capacity %d", kids, t.a.full)
		}
		for i := uint32(0); i < kids; i++ {
			if depth+1 > int(maxDepth) {
				return fmt.Errorf("quadtree: node deeper than MaxDepth %d", maxDepth)
			}
			var idx uint32
			if err := read(&idx); err != nil {
				return fmt.Errorf("quadtree: reading child index: %w", err)
			}
			child := t.a.addChild(n, idx)
			t.nodeCount++
			if err := rec(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return nil, err
	}
	t.a.compactKids()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("quadtree: decoded tree invalid: %w", err)
	}
	return t, nil
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
