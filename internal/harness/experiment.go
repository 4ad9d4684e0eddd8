package harness

import (
	"fmt"
	"io"
)

// Every experiment is one Descriptor: its run function plus its text,
// CSV and chart renderers. mbpexp's registry, `all` and dispatch, the
// markdown report, the golden and serial-vs-pool tests and the root
// benchmarks all go through descriptors, so a new experiment is one
// descriptor (and its golden files) and nothing else.
//
// Run has the submit-and-wait shape: it submits the experiment's whole
// (configuration × program) grid to the scheduler immediately and
// returns the wait function, so several experiments share one pool
// (mbpexp all, the report). Wait functions fold in declaration order,
// so rendered output never depends on execution interleaving.

// Params carries the few knobs an experiment reads beyond the trace
// set. The zero value selects every experiment's defaults.
type Params struct {
	// TopN is the number of block addresses events and h2p show
	// (0 = DefaultEventsTopN, DefaultH2PTopN).
	TopN int
	// Histories is h2p's history-length sensitivity grid (nil =
	// DefaultH2PHistories).
	Histories []int
	// Options are the capture options of seeds, the one experiment that
	// captures its own traces.
	Options Options
}

// Descriptor is one experiment. A nil renderer means the experiment
// has no such form; a nil Run means it renders without simulating.
type Descriptor[R any] struct {
	Name  string
	Run   func(s *Scheduler, ts *TraceSet, p Params) func() (R, error)
	Text  func(w io.Writer, r R) error
	CSV   func(w io.Writer, r R) error
	Chart func(w io.Writer, r R) error
}

// Form selects one of an experiment's renderings.
type Form int

const (
	FormText Form = iota
	FormCSV
	FormChart
	numForms
)

func (f Form) String() string {
	return [numForms]string{"table", "csv", "chart"}[f]
}

// Renderer writes a finished run in one of its experiment's forms.
type Renderer func(w io.Writer, f Form) error

// Experiment is a Descriptor with its result type erased, so
// experiments of different result types share one list.
type Experiment interface {
	// String returns the experiment's name.
	String() string
	// Has reports whether the experiment renders in form f.
	Has(f Form) bool
	// Traced reports whether the experiment reads the trace set.
	Traced() bool
	// Start submits the experiment's grid and returns its wait function.
	Start(s *Scheduler, ts *TraceSet, p Params) func() (Renderer, error)
}

func (d *Descriptor[R]) String() string  { return d.Name }
func (d *Descriptor[R]) Has(f Form) bool { return d.render(f) != nil }
func (d *Descriptor[R]) Traced() bool    { return d.Run != nil }

func (d *Descriptor[R]) render(f Form) func(io.Writer, R) error {
	return [numForms]func(io.Writer, R) error{d.Text, d.CSV, d.Chart}[f]
}

// submit is Run, with a nil Run yielding the zero result at once.
func (d *Descriptor[R]) submit(s *Scheduler, ts *TraceSet, p Params) func() (R, error) {
	if d.Run == nil {
		return func() (r R, err error) { return r, nil }
	}
	return d.Run(s, ts, p)
}

// Start implements Experiment.
func (d *Descriptor[R]) Start(s *Scheduler, ts *TraceSet, p Params) func() (Renderer, error) {
	wait := d.submit(s, ts, p)
	return func() (Renderer, error) {
		r, err := wait()
		if err != nil {
			return nil, err
		}
		return func(w io.Writer, f Form) error {
			render := d.render(f)
			if render == nil {
				return fmt.Errorf("%s has no %s form", d.Name, f)
			}
			return render(w, r)
		}, nil
	}
}

// Experiments is every experiment except the report, in the order
// mbpexp all runs them.
var Experiments = []Experiment{
	Fig6, Fig7, Fig8, Table5, Table6, Fig9, Cost,
	ExtBlocks, Ablation, Baseline, Compare, Predictors,
	Widths, Seeds, ICache, Events, H2P,
}
