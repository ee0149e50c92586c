package gpumodel

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
)

// CompileInput gathers what a region compiles its GPU model against: the
// kernel, the device and its link, and the region's Shape, which the CPU
// model and every other target share.
type CompileInput struct {
	Kernel  *ir.Kernel
	GPU     *machine.GPU
	Link    machine.Link
	Options Options

	Shape *ipda.Shape
}

// Compiled is the model specialized to one (kernel, GPU, link, options)
// region: the kernel analysis is read off the launch's resolved
// ipda.Point, so each call is the model's arithmetic — the same price
// Predict runs — over the device's parameters.
type Compiled struct{ m model }

// Compile specializes the model to the region. It fails — and with it the
// region's registration — exactly when the interpreted Predict would error
// per call and CompileShape has not already: an array whose size the
// parameters do not resolve.
func Compile(in CompileInput) (*Compiled, error) {
	if in.Kernel == nil || in.GPU == nil || in.Shape == nil {
		return nil, fmt.Errorf("gpumodel: compile: nil kernel, GPU or shape")
	}
	if in.Options.IncludeTransfer {
		// The interpreted TransferBytes sizes every array, erroring on
		// any unresolvable one even if it never crosses the link.
		for _, a := range in.Kernel.Arrays {
			if bexpr := a.Bytes(); !ir.Resolvable(bexpr, in.Shape.Bound) {
				return nil, fmt.Errorf("gpumodel: compile: sizing %s: %s not resolvable from parameters",
					a.Name, bexpr)
			}
		}
	}
	return &Compiled{newModel(in.GPU, in.Link, in.Options)}, nil
}

// Seconds is the predicted time of the region's launch at pt with the
// device running iterFraction of the iteration space (0: all of it) — what
// a decision needs of Predict.
func (c *Compiled) Seconds(pt *ipda.Point, iterFraction float64) (float64, error) {
	var p Prediction
	err := c.m.price(pt, iterFraction, &p)
	return p.Seconds, err
}

// Predict is Seconds with the model's whole breakdown, the form the
// equivalence tests compare field by field against the interpreted
// Predict.
func (c *Compiled) Predict(pt *ipda.Point, iterFraction float64) (Prediction, error) {
	var p Prediction
	err := c.m.price(pt, iterFraction, &p)
	return p, err
}
