package faultnet

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Step is one timed phase of a scenario: hold Faults for Duration.
type Step struct {
	Duration time.Duration
	Faults   Faults
}

// Scenario is a scripted fault timeline.
type Scenario struct {
	Name  string
	Steps []Step
}

// Total returns the scenario's scripted duration.
func (s Scenario) Total() time.Duration {
	var d time.Duration
	for _, st := range s.Steps {
		d += st.Duration
	}
	return d
}

// String renders the scenario in the DSL it parses from.
func (s Scenario) String() string {
	parts := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		parts[i] = st.Duration.String() + ":" + st.Faults.String()
	}
	return strings.Join(parts, ";")
}

// Presets are the named scenarios accepted by ParseScenario (and the
// loadgen/hybridseld -faults/-chaos flags), expressed in the DSL.
//
//   - flap: the link drops and heals three times in quick succession —
//     the breaker must open during each partition and re-close after.
//   - brownout: latency and error rates ramp up, peak, and recover.
//   - partition-heal: a clean window, a hard partition, a healed window.
//   - faults30: a sustained ≈30% mixed-fault regime (resets + 5xx bursts
//   - truncation + jittered latency), the acceptance scenario: every
//     request must still complete, remote or fallback.
var Presets = map[string]string{
	"flap": "400ms:partition;400ms:off;400ms:partition;400ms:off;" +
		"400ms:partition;400ms:off",
	"brownout": "1s:lat=5ms,jit=5ms,err=0.1;2s:lat=20ms,jit=20ms,err=0.4," +
		"retryafter=50ms;1s:lat=5ms,err=0.1;1s:off",
	"partition-heal": "1s:off;1500ms:partition;2s:off",
	// reset 0.10 + 0.90·err 0.15 + 0.90·0.85·trunc 0.08 ≈ 0.297.
	"faults30": "10s:reset=0.1,err=0.15,trunc=0.08,lat=1ms,jit=2ms",
}

// ParseScenario resolves a preset name or parses the scenario DSL:
// semicolon-separated "duration:faultspec" steps, e.g.
//
//	500ms:partition;1s:off;2s:err=0.3,lat=5ms
//
// See ParseFaults for the fault-spec grammar.
func ParseScenario(spec string) (Scenario, error) {
	name := spec
	if dsl, ok := Presets[spec]; ok {
		spec = dsl
	}
	sc := Scenario{Name: name}
	for _, stepSpec := range strings.Split(spec, ";") {
		stepSpec = strings.TrimSpace(stepSpec)
		if stepSpec == "" {
			continue
		}
		durSpec, faultSpec, ok := strings.Cut(stepSpec, ":")
		if !ok {
			return Scenario{}, fmt.Errorf("faultnet: step %q: want duration:faults", stepSpec)
		}
		d, err := time.ParseDuration(strings.TrimSpace(durSpec))
		if err != nil {
			return Scenario{}, fmt.Errorf("faultnet: step %q: %w", stepSpec, err)
		}
		if d <= 0 {
			return Scenario{}, fmt.Errorf("faultnet: step %q: non-positive duration", stepSpec)
		}
		f, err := ParseFaults(faultSpec)
		if err != nil {
			return Scenario{}, err
		}
		sc.Steps = append(sc.Steps, Step{Duration: d, Faults: f})
	}
	if len(sc.Steps) == 0 {
		return Scenario{}, fmt.Errorf("faultnet: scenario %q has no steps", name)
	}
	return sc, nil
}

// ParseFaults parses one comma-separated fault spec. Keys:
//
//	off                 no faults (also the empty spec)
//	partition           drop everything
//	lat=<dur>           added latency
//	jit=<dur>           uniform extra latency in [0, jit)
//	bw=<bytes/sec>      response bandwidth cap
//	reset=<p>           connection-reset probability
//	trunc=<p>           response-truncation probability
//	err=<p>             injected-5xx probability
//	code=<status>       injected error status (default 503)
//	retryafter=<dur>    Retry-After advertised on injected errors
func ParseFaults(spec string) (Faults, error) {
	var f Faults
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		switch tok {
		case "", "off":
			continue
		case "partition":
			f.Partition = true
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Faults{}, fmt.Errorf("faultnet: fault token %q: want key=value", tok)
		}
		var err error
		switch key {
		case "lat":
			f.Latency, err = time.ParseDuration(val)
		case "jit":
			f.Jitter, err = time.ParseDuration(val)
		case "retryafter":
			f.RetryAfter, err = time.ParseDuration(val)
		case "bw":
			f.BandwidthBps, err = strconv.ParseInt(val, 10, 64)
		case "reset":
			f.ResetRate, err = parseRate(val)
		case "trunc":
			f.TruncateRate, err = parseRate(val)
		case "err":
			f.ErrorRate, err = parseRate(val)
		case "code":
			f.ErrorCode, err = strconv.Atoi(val)
			if err == nil && (f.ErrorCode < 400 || f.ErrorCode > 599) {
				err = fmt.Errorf("status %d outside 400..599", f.ErrorCode)
			}
		default:
			return Faults{}, fmt.Errorf("faultnet: unknown fault key %q", key)
		}
		if err != nil {
			return Faults{}, fmt.Errorf("faultnet: fault token %q: %w", tok, err)
		}
	}
	return f, nil
}

func parseRate(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("rate %g outside [0, 1]", p)
	}
	return p, nil
}

// Run applies the scenario's steps in order, holding each fault set for
// its duration, and clears the faults when the scenario ends or ctx is
// cancelled. onStep, when non-nil, is called as each step becomes active.
func (p *Proxy) Run(ctx context.Context, sc Scenario, onStep func(i int, s Step)) error {
	defer p.SetFaults(Faults{})
	for i, st := range sc.Steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.SetFaults(st.Faults)
		if onStep != nil {
			onStep(i, st)
		}
		select {
		case <-time.After(st.Duration):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
