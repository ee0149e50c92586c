package cluster

import "sync/atomic"

// VersionedSource adapts a mergeable state container — anything with a
// deterministic snapshot and a commutative, idempotent merge, like
// audit.Calibrator or learn.Learner — into a gossip Source. Gossip
// replicates a member's state blob only when its version grows, so the
// wrapper keeps a monotonic counter: the owner bumps it whenever local
// observations change the state (Bump), and Apply bumps it whenever a
// remote blob merges in new facts, which is what lets merged state keep
// flowing to peers that never saw the original source.
type VersionedSource struct {
	name     string
	ver      atomic.Uint64
	snapshot func() []byte
	merge    func(data []byte) (changed bool, err error)
}

// NewVersionedSource wraps the snapshot/merge pair under the given
// gossip source name.
func NewVersionedSource(name string, snapshot func() []byte, merge func([]byte) (bool, error)) *VersionedSource {
	return &VersionedSource{name: name, snapshot: snapshot, merge: merge}
}

// Bump marks the local state as changed; the next gossip exchange
// re-snapshots and replicates it. Call after local mutations (an
// observation fed to the calibrator, a learner update).
func (s *VersionedSource) Bump() { s.ver.Add(1) }

// Source returns the gossip Source to register on a Node.
func (s *VersionedSource) Source() Source {
	return Source{
		Name:     s.name,
		Snapshot: func() (uint64, []byte) { return s.ver.Load(), s.snapshot() },
		Apply: func(origin string, version uint64, data []byte) error {
			changed, err := s.merge(data)
			if err != nil {
				return err
			}
			if changed {
				s.ver.Add(1)
			}
			return nil
		},
	}
}
