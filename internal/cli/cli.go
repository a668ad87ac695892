// Package cli is the scaffold shared by the measuring commands
// (pqbench, kvbench, crashsim, persistcheck). It owns what each of them
// would otherwise repeat: the four output-path flags (-metrics-out,
// -spans-out, -cpuprofile, -memprofile), the run manifest and its
// stderr header, the metrics registry and span tracer, and one exit
// path that flushes every requested output whatever the exit code.
//
// A command's main is one line:
//
//	func main() { cli.Main("crashsim", run) }
//
// and run registers its own flags on env.Flags, calls env.Parse, does
// its work, and returns an exit code (0 ok, 2 verdict failure) or an
// error (exit 1). It never calls os.Exit itself, so deferred profile
// and metrics writers always run.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/telemetry"
)

// Env is what the scaffold hands a command body. Manifest, Registry
// and Spans are set by Parse.
type Env struct {
	// Flags is the command's flag set; register flags on it before
	// calling Parse.
	Flags *flag.FlagSet
	// Manifest is the run's provenance record, with every flag's
	// effective value captured. Bodies add seeds and the model grid.
	Manifest *telemetry.Manifest
	// Registry receives the run's metrics; -metrics-out snapshots it.
	Registry *telemetry.Registry
	// Spans is the wall-clock span tracer. It is nil (and costs
	// nothing) unless -spans-out is set.
	Spans *telemetry.SpanTracer

	tool    string
	args    []string
	out     outputs
	cpuFile *os.File
}

// outputs are the four output paths every measuring command accepts.
type outputs struct {
	metrics, spans, cpu, mem string
}

// usageError marks a command-line parse failure; the flag package has
// already reported it, so Run only maps it to an exit code.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

// Parse parses the command line, stamps the manifest and prints its
// one-line header to stderr, creates the registry and (with -spans-out)
// the span tracer, and starts the CPU profile.
func (e *Env) Parse() error {
	if err := e.Flags.Parse(e.args); err != nil {
		return usageError{err}
	}
	e.Manifest = telemetry.NewManifest(e.tool).CaptureFlags(e.Flags)
	e.Manifest.Args = append([]string(nil), e.args...)
	fmt.Fprintln(os.Stderr, e.Manifest.String())
	e.Registry = telemetry.NewRegistry()
	if e.out.spans != "" {
		e.Spans = telemetry.NewSpanTracer(e.Registry)
	}
	if e.out.cpu != "" {
		f, err := os.Create(e.out.cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		e.cpuFile = f
	}
	return nil
}

// Run executes body as the named tool over args (the command line
// without the program name) and returns the process exit code. After
// body returns, whatever its result, Run writes the requested spans,
// metrics and heap profile and stops the CPU profile. An error from
// body or from those writes is printed as "<tool>: <err>" and exits 1;
// otherwise body's code is returned. A malformed command line exits 2
// (-h and -help exit 0), as with the flag package's default handling.
func Run(tool string, args []string, body func(*Env) (int, error)) int {
	env := &Env{Flags: flag.NewFlagSet(tool, flag.ContinueOnError), tool: tool, args: args}
	fs := env.Flags
	fs.StringVar(&env.out.metrics, "metrics-out", "", "write a metrics snapshot to this file (.prom/.txt: Prometheus text, else JSON)")
	fs.StringVar(&env.out.spans, "spans-out", "", "write the harness wall-clock span trace (Chrome trace-event JSON) to this file")
	fs.StringVar(&env.out.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&env.out.mem, "memprofile", "", "write a heap profile to this file")

	code, err := body(env)
	var uerr usageError
	if errors.As(err, &uerr) {
		if errors.Is(uerr.err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		code = 1
	}
	if ferr := env.flush(); ferr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, ferr)
		code = 1
	}
	return code
}

// Main runs body as the named tool over the process's command line and
// exits with its code.
func Main(tool string, body func(*Env) (int, error)) {
	os.Exit(Run(tool, os.Args[1:], body))
}

// flush writes every requested output. Each is attempted even when an
// earlier one fails. A path is set only once Parse has parsed the
// flags, so the manifest, registry and tracer exist whenever one is.
func (e *Env) flush() error {
	var errs []error
	if e.out.spans != "" {
		if err := telemetry.WriteSpans(e.out.spans, e.Manifest, e.Spans); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote %d wall-clock spans to %s\n", e.tool, e.Spans.Len(), e.out.spans)
		}
	}
	if e.out.metrics != "" {
		errs = append(errs, telemetry.WriteMetrics(e.Registry, e.Manifest, e.out.metrics))
	}
	if e.out.mem != "" {
		errs = append(errs, writeHeapProfile(e.out.mem))
	}
	if e.cpuFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, e.cpuFile.Close())
	}
	return errors.Join(errs...)
}

// writeHeapProfile writes a heap profile of the live heap after a GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
