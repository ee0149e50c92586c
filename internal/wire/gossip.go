// Gossip frame: the payload cluster replicas exchange to spread
// membership health and versioned replica state (calibration factors,
// learner snapshots) without a coordination service.
//
// One TypeGossip frame carries the sender's full membership view: for
// every member it knows about, an entry with the member's incarnation
// number, health verdict, and zero or more named state blobs, each
// tagged with a monotonically increasing version. The blobs are opaque
// to the wire layer — internal/cluster interprets them — so the frame
// format stays stable as new state sources are piggybacked.
package wire

import (
	"encoding/binary"
	"fmt"
)

// TypeGossip carries a full-state gossip exchange between cluster
// replicas, extending the stream frame set.
const TypeGossip = 10

// Gossip health verdicts, ordered from best to worst. The ordering is
// load-bearing: merge rules prefer the higher value at equal
// incarnation, so "worse news wins" until the subject refutes it by
// bumping its incarnation.
const (
	GossipAlive   = 0
	GossipSuspect = 1
	GossipDead    = 2
)

// GossipState is one named, versioned state blob piggybacked on a
// membership entry. Data is opaque at this layer.
type GossipState struct {
	Name    string
	Version uint64
	Data    []byte
}

// GossipEntry is one member's row in a gossip exchange: who, how alive,
// and what replica state the sender holds for them.
type GossipEntry struct {
	ID          string
	Addr        string // member's decide base URL, for introductions
	Incarnation uint64
	Health      byte
	States      []GossipState
}

// GossipMsg is a full-state gossip exchange: the sender's ID plus its
// entire membership view.
type GossipMsg struct {
	From    string
	Entries []GossipEntry
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendGossip appends a complete TypeGossip frame.
func AppendGossip(dst []byte, g *GossipMsg) []byte {
	dst, at := beginFrame(dst, TypeGossip)
	dst = appendString(dst, g.From)
	dst = binary.AppendUvarint(dst, uint64(len(g.Entries)))
	for i := range g.Entries {
		e := &g.Entries[i]
		dst = appendString(dst, e.ID)
		dst = appendString(dst, e.Addr)
		dst = binary.AppendUvarint(dst, e.Incarnation)
		dst = append(dst, e.Health)
		dst = binary.AppendUvarint(dst, uint64(len(e.States)))
		for j := range e.States {
			s := &e.States[j]
			dst = appendString(dst, s.Name)
			dst = binary.AppendUvarint(dst, s.Version)
			dst = appendBytes(dst, s.Data)
		}
	}
	return endFrame(dst, at)
}

// bytes reads an opaque blob into memory of its own (nil when empty).
func (r *reader) bytes() ([]byte, error) {
	b, err := r.raw()
	if len(b) == 0 {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

func (r *reader) byte() (byte, error) {
	if r.i >= len(r.b) {
		return 0, fmt.Errorf("%w: truncated byte", ErrMalformed)
	}
	b := r.b[r.i]
	r.i++
	return b, nil
}

func decodeGossipPayload(r *reader) (*GossipMsg, error) {
	g := &GossipMsg{}
	var err error
	if g.From, err = r.string(); err != nil {
		return nil, err
	}
	n, err := r.count(4, 0)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		g.Entries = make([]GossipEntry, n)
	}
	for i := range g.Entries {
		e := &g.Entries[i]
		if e.ID, err = r.string(); err != nil {
			return nil, err
		}
		if e.Addr, err = r.string(); err != nil {
			return nil, err
		}
		if e.Incarnation, err = r.uvarint(); err != nil {
			return nil, err
		}
		if e.Health, err = r.byte(); err != nil {
			return nil, err
		}
		if e.Health > GossipDead {
			return nil, fmt.Errorf("%w: unknown gossip health %d", ErrMalformed, e.Health)
		}
		m, err := r.count(3, 0)
		if err != nil {
			return nil, err
		}
		if m > 0 {
			e.States = make([]GossipState, m)
		}
		for j := range e.States {
			s := &e.States[j]
			if s.Name, err = r.string(); err != nil {
				return nil, err
			}
			if s.Version, err = r.uvarint(); err != nil {
				return nil, err
			}
			if s.Data, err = r.bytes(); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
