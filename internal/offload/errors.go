package offload

import (
	"errors"
	"fmt"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Sentinel errors for errors.Is matching. Every error returned by the
// runtime that stems from one of these conditions wraps the corresponding
// sentinel, whatever descriptive context it carries.
var (
	// ErrUnknownRegion reports a launch, prediction or execution against
	// a region name that was never registered.
	ErrUnknownRegion = errors.New("offload: unknown region")
	// ErrDuplicateRegion reports a second registration of a region name.
	ErrDuplicateRegion = errors.New("offload: region already registered")
	// ErrNotCompilable reports a kernel whose models cannot be
	// specialized to slot programs at Register time: some expression the
	// decision needs is not resolvable from the kernel's parameters alone.
	ErrNotCompilable = errors.New("offload: region not compilable")
	// ErrUnboundSymbol reports runtime bindings that are missing a value
	// one of the region's symbolic attributes needs (an array size or
	// loop trip count the compiler transformation must supply).
	ErrUnboundSymbol = errors.New("offload: unbound symbol")
	// ErrKeyHashMismatch reports a slot vector whose claimed key hash is
	// not the hash of its values under the region's parameter layout: the
	// caller and the runtime disagree on the region's parameter set.
	ErrKeyHashMismatch = errors.New("offload: key hash mismatch")
)

// wrapUnbound tags errors caused by missing runtime bindings with
// ErrUnboundSymbol so callers can errors.Is-match them; other errors pass
// through unchanged.
func wrapUnbound(err error) error {
	if err == nil {
		return nil
	}
	var u *symbolic.UnboundError
	if errors.As(err, &u) {
		return fmt.Errorf("%w: %w", ErrUnboundSymbol, err)
	}
	return err
}
