// Tracereplay: record every decision a runtime takes as a JSONL launch
// trace, then replay the trace through a fresh runtime and verify the
// decision sequence is byte-identical. This is the reproducibility story
// of the analytical selector: the same attributes, bindings and machine
// description always produce the same selection, so a production trace
// (e.g. recorded by `hybridseld -trace`) doubles as a regression test.
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/trace"
)

func newRuntime(rec *trace.Writer) *offload.Runtime {
	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		Policy:   offload.ModelGuided,
	})
	if rec != nil {
		// The trace writer observes every completed decision.
		rt.SetObserver(rec.Observer())
	}
	for _, name := range []string{"gemm", "mvt1", "2dconv"} {
		k, err := polybench.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			log.Fatal(err)
		}
	}
	return rt
}

func main() {
	// Phase 1: record. Drive a small mixed workload and capture each
	// decision (region, bindings, policy, target, both predictions).
	var recorded bytes.Buffer
	rec := trace.NewWriter(&recorded)
	rt := newRuntime(rec)
	workload := []struct {
		region string
		n      int64
	}{
		{"gemm", 128}, {"gemm", 1100}, {"mvt1", 4096},
		{"2dconv", 9600}, {"gemm", 1100}, {"mvt1", 512},
	}
	for _, w := range workload {
		r, err := rt.Region(w.region)
		if err != nil {
			log.Fatal(err)
		}
		out, err := r.Launch(symbolic.Bindings{"n": w.n})
		if err != nil {
			log.Fatal(err)
		}
		predCPU, predGPU := out.BasePair()
		fmt.Printf("record  %-8s n=%-6d -> %-5s (pred cpu %.3gs, gpu %.3gs)\n",
			w.region, w.n, out.Target, predCPU, predGPU)
	}
	if err := rec.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecorded %d decisions (%d bytes of JSONL)\n\n",
		rec.Len(), recorded.Len())

	// Phase 2: replay through a brand-new runtime (fresh caches, fresh
	// attribute database) while recording again.
	recs, err := trace.Read(bytes.NewReader(recorded.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	var replayed bytes.Buffer
	rec2 := trace.NewWriter(&replayed)
	rt2 := newRuntime(rec2)
	res, err := trace.Replay(rt2, recs, true)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec2.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d/%d decisions matched\n", res.Matched, res.Total)
	if res.First != nil {
		log.Fatalf("divergence at seq %d: %s want %q got %q",
			res.First.Seq, res.First.Field, res.First.Want, res.First.Got)
	}

	// Phase 3: the strongest check — the re-recorded trace is the same
	// bytes as the original.
	if !bytes.Equal(recorded.Bytes(), replayed.Bytes()) {
		log.Fatal("replayed trace differs from recorded trace")
	}
	fmt.Println("replayed trace is byte-identical to the recording")
}
