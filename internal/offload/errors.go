package offload

import (
	"errors"
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ipda"
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
	// ErrOutOfRange reports runtime bindings whose values leave the region
	// nothing the models can price: an empty iteration space.
	ErrOutOfRange = errors.New("offload: bindings out of range")
	// ErrKeyHashMismatch reports a slot vector whose claimed key hash is
	// not the hash of its values under the region's parameter layout: the
	// caller and the runtime disagree on the region's parameter set.
	ErrKeyHashMismatch = errors.New("offload: key hash mismatch")
)

// wrapInput tags the errors the caller's bindings cause — a missing value
// with ErrUnboundSymbol, an empty iteration space with ErrOutOfRange — so
// callers can errors.Is-match them; other errors pass through unchanged.
func wrapInput(err error) error {
	if err == nil {
		return nil
	}
	var u *symbolic.UnboundError
	if errors.As(err, &u) {
		return fmt.Errorf("%w: %w", ErrUnboundSymbol, err)
	}
	if errors.Is(err, ipda.ErrEmptySpace) {
		return fmt.Errorf("%w: %w", ErrOutOfRange, err)
	}
	return err
}
