package faultnet

import (
	"fmt"
	"sync"
)

// This file is the cluster half of faultnet: a Mesh of directed
// per-edge proxies, one for each (from, to) pair of named endpoints.
// Per-edge proxies are what make cluster pathologies expressible — a
// split-brain partitions a>b while a>c stays up, a node kill cuts every
// edge into one endpoint, a rolling restart walks the kill around the
// ring — while keeping faultnet's determinism contract: each edge owns
// an independent RNG seeded from (mesh seed, edge name), so the fault
// pattern on one edge never depends on traffic order on another.

// Mesh is a set of directed fault-injection links between named
// endpoints ("client", "node-a", ...). Create with NewMesh, wire each
// edge with Link, then reconfigure edges (SetFaults), whole nodes
// (SetNodeFaults), or group partitions (Partition) at runtime.
type Mesh struct {
	seed int64

	mu    sync.Mutex
	links map[string]*meshLink
}

type meshLink struct {
	from, to string
	proxy    *Proxy
}

// edgeKey names a directed link.
func edgeKey(from, to string) string { return from + ">" + to }

// linkSeed derives a per-edge RNG seed from the mesh seed and the edge
// name (FNV-1a), so adding or reordering other links never perturbs
// this edge's fault sequence.
func linkSeed(seed int64, key string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

// NewMesh builds an empty mesh; every edge added later derives its RNG
// seed deterministically from seed and the edge's name.
func NewMesh(seed int64) *Mesh {
	return &Mesh{seed: seed, links: make(map[string]*meshLink)}
}

// Link creates the directed edge from→to as a proxy forwarding to the
// target base URL, starts it on an ephemeral port, and returns the
// bound address. Creating the same edge twice is an error.
func (m *Mesh) Link(from, to, target string) (string, error) {
	key := edgeKey(from, to)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.links[key]; ok {
		return "", fmt.Errorf("faultnet: mesh link %s already exists", key)
	}
	p := New(target, linkSeed(m.seed, key))
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	m.links[key] = &meshLink{from: from, to: to, proxy: p}
	return addr, nil
}

// Proxy returns the edge's proxy (nil if the edge does not exist), for
// per-edge stats and fault control.
func (m *Mesh) Proxy(from, to string) *Proxy {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.links[edgeKey(from, to)]
	if l == nil {
		return nil
	}
	return l.proxy
}

// SetFaults reconfigures one directed edge. Unknown edges are ignored —
// scenario scripts may name nodes that a particular rig never wired.
func (m *Mesh) SetFaults(from, to string, f Faults) {
	if p := m.Proxy(from, to); p != nil {
		p.SetFaults(f)
	}
}

// SetNodeFaults applies f to every edge INTO the node: the way every
// peer (and the client) experiences a sick or dead replica. Edges out
// of the node are untouched — a dying node can still emit traffic,
// which is exactly what makes split-brain rumors interesting.
func (m *Mesh) SetNodeFaults(node string, f Faults) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.links {
		if l.to == node {
			l.proxy.SetFaults(f)
		}
	}
}

// Partition splits the named endpoints into groups: edges crossing a
// group boundary drop every request, edges inside a group are healed.
// Edges touching an endpoint not named in any group are left untouched.
func (m *Mesh) Partition(groups ...[]string) {
	group := map[string]int{}
	for i, g := range groups {
		for _, name := range g {
			group[name] = i
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.links {
		gf, okf := group[l.from]
		gt, okt := group[l.to]
		if !okf || !okt {
			continue
		}
		if gf == gt {
			l.proxy.SetFaults(Faults{})
		} else {
			l.proxy.SetFaults(Faults{Partition: true})
		}
	}
}

// Heal clears the fault set on every edge.
func (m *Mesh) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.links {
		l.proxy.SetFaults(Faults{})
	}
}

// Stats snapshots every edge's counters, keyed "from>to".
func (m *Mesh) Stats() map[string]Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]Stats, len(m.links))
	for key, l := range m.links {
		out[key] = l.proxy.Stats()
	}
	return out
}

// Close tears down every edge proxy.
func (m *Mesh) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, l := range m.links {
		if err := l.proxy.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
