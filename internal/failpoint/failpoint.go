// Package failpoint provides named fault-injection points for crash and
// error testing of the durability subsystem. A failpoint is declared once
// at package initialization (`var fp = failpoint.New("wal.sync.before-fsync")`)
// and consulted on the hot path with fp.Hit(), which is two atomic loads and
// no allocation while nothing is armed — cheap enough to leave compiled into
// production paths.
//
// Arming is programmatic (Arm, for unit tests) or via the environment (the
// ORDXML_FAILPOINTS variable, for child processes in crash-torture tests):
//
//	ORDXML_FAILPOINTS="wal.sync.before-fsync=crash@3,checkpoint.paged.before-meta=error"
//
// Each entry is <name>=<mode>[@N]; the failpoint triggers on its Nth hit
// (default 1). Mode "crash" terminates the process immediately with
// CrashExitCode, bypassing deferred functions — simulating a machine crash at
// exactly that point. Mode "error" makes Hit return an error wrapping
// ErrInjected once, then disarms, so callers' error paths run and the process
// survives. Mode "enospc" is error mode with the injected error additionally
// wrapping syscall.ENOSPC — simulating a full disk, so degraded-mode handling
// that inspects the underlying errno can be exercised.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// CrashExitCode is the process exit status used by crash-mode failpoints,
// chosen to be distinguishable from go test's own failure codes.
const CrashExitCode = 86

// EnvVar names the environment variable read for arming specs.
const EnvVar = "ORDXML_FAILPOINTS"

// ErrInjected is the sentinel wrapped by every error-mode injection.
var ErrInjected = errors.New("failpoint: injected error")

// Mode selects what a triggered failpoint does.
type Mode int

// Failpoint modes.
const (
	// Off means the failpoint is not armed.
	Off Mode = iota
	// Crash terminates the process with CrashExitCode at the trigger hit.
	Crash
	// Error makes Hit return an error at the trigger hit, then disarms.
	Error
	// Enospc is Error with the injected error also wrapping syscall.ENOSPC,
	// simulating a full disk at the trigger hit.
	Enospc
)

// String returns the mode's spelling in arming specs.
func (m Mode) String() string {
	switch m {
	case Crash:
		return "crash"
	case Error:
		return "error"
	case Enospc:
		return "enospc"
	default:
		return "off"
	}
}

// parseMode reads a mode spelling.
func parseMode(s string) (Mode, error) {
	switch s {
	case "crash":
		return Crash, nil
	case "error":
		return Error, nil
	case "enospc":
		return Enospc, nil
	default:
		return Off, fmt.Errorf("failpoint: unknown mode %q (want crash, error or enospc)", s)
	}
}

// FP is one registered failpoint. The zero value is not usable; declare
// failpoints with New.
type FP struct {
	name string
	// mode holds the armed Mode (Off when disarmed).
	mode atomic.Int32
	// countdown is the number of Hit calls remaining before the trigger;
	// the hit that decrements it to zero triggers.
	countdown atomic.Int64
	// hits counts Hit calls observed while armed (test introspection).
	hits atomic.Int64
}

// registry state. armedCount is the global fast-path gate: Hit returns
// immediately while it is zero, so disabled failpoints cost one atomic load.
var (
	mu         sync.Mutex
	registry   = map[string]*FP{}
	armedCount atomic.Int32
	envSpecs   map[string]Spec
	envOnce    sync.Once
)

// Spec is one parsed arming entry.
type Spec struct {
	Mode  Mode
	After int64
}

// New declares and registers a failpoint. Names must be unique across the
// process; New panics on duplicates (failpoints are package-level singletons).
// If the environment spec names this failpoint, it is armed immediately.
func New(name string) *FP {
	loadEnv()
	mu.Lock()
	defer mu.Unlock()
	if _, ok := registry[name]; ok {
		panic("failpoint: duplicate registration of " + name)
	}
	fp := &FP{name: name}
	registry[name] = fp
	if spec, ok := envSpecs[name]; ok {
		fp.arm(spec.Mode, spec.After)
	}
	return fp
}

// loadEnv parses the arming environment variable once. Parsing is deferred to
// the first New call so it runs after the package is initialized regardless
// of init order; a malformed spec is a hard failure (the torture harness must
// never silently run without its failpoint).
func loadEnv() {
	envOnce.Do(func() {
		specs, err := ParseSpecs(os.Getenv(EnvVar))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		envSpecs = specs
	})
}

// ParseSpecs parses a comma-separated arming spec list
// ("a=crash,b=error@2"). Exposed for tests and tools.
func ParseSpecs(env string) (map[string]Spec, error) {
	specs := map[string]Spec{}
	if strings.TrimSpace(env) == "" {
		return specs, nil
	}
	for _, part := range strings.Split(env, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("failpoint: bad spec %q (want name=mode[@N])", part)
		}
		modeStr, afterStr, hasAfter := strings.Cut(rest, "@")
		mode, err := parseMode(modeStr)
		if err != nil {
			return nil, err
		}
		after := int64(1)
		if hasAfter {
			after, err = strconv.ParseInt(afterStr, 10, 64)
			if err != nil || after < 1 {
				return nil, fmt.Errorf("failpoint: bad hit count in %q", part)
			}
		}
		specs[name] = Spec{Mode: mode, After: after}
	}
	return specs, nil
}

// arm sets the failpoint's trigger. Caller holds mu.
func (f *FP) arm(mode Mode, after int64) {
	if f.mode.Load() == int32(Off) && mode != Off {
		armedCount.Add(1)
	}
	if f.mode.Load() != int32(Off) && mode == Off {
		armedCount.Add(-1)
	}
	f.countdown.Store(after)
	f.mode.Store(int32(mode))
}

// Arm arms a registered failpoint to trigger on its after-th Hit (after >= 1).
func Arm(name string, mode Mode, after int64) error {
	if after < 1 {
		return fmt.Errorf("failpoint: hit count must be >= 1, got %d", after)
	}
	if mode == Off {
		return Disarm(name)
	}
	mu.Lock()
	defer mu.Unlock()
	fp, ok := registry[name]
	if !ok {
		return fmt.Errorf("failpoint: no failpoint named %q", name)
	}
	fp.arm(mode, after)
	return nil
}

// Disarm turns a failpoint off.
func Disarm(name string) error {
	mu.Lock()
	defer mu.Unlock()
	fp, ok := registry[name]
	if !ok {
		return fmt.Errorf("failpoint: no failpoint named %q", name)
	}
	fp.arm(Off, 1)
	return nil
}

// Reset disarms every failpoint (test teardown).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, fp := range registry {
		fp.arm(Off, 1)
	}
}

// Names returns every registered failpoint name, sorted. The crash-torture
// harness iterates this list so new failpoints are exercised automatically.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the failpoint's registered name.
func (f *FP) Name() string { return f.name }

// Hits returns the number of Hit calls observed while armed.
func (f *FP) Hits() int64 { return f.hits.Load() }

// Check consumes one hit and reports whether this hit triggers the
// failpoint. It never crashes or errors itself — callers that need to
// perform work at the trigger (e.g. a deliberate torn write) branch on Check
// and then call Act. Most call sites use Hit, which combines the two.
func (f *FP) Check() bool {
	if armedCount.Load() == 0 {
		return false
	}
	if Mode(f.mode.Load()) == Off {
		return false
	}
	f.hits.Add(1)
	return f.countdown.Add(-1) == 0
}

// Act performs the armed mode's action: crash mode terminates the process,
// error mode disarms the failpoint and returns an error wrapping ErrInjected.
// Call only after Check returned true.
func (f *FP) Act() error {
	switch Mode(f.mode.Load()) {
	case Crash:
		fmt.Fprintf(os.Stderr, "failpoint %s: crashing process\n", f.name)
		os.Exit(CrashExitCode)
		return nil // unreachable
	case Error:
		mu.Lock()
		f.arm(Off, 1)
		mu.Unlock()
		return fmt.Errorf("failpoint %s: %w", f.name, ErrInjected)
	case Enospc:
		mu.Lock()
		f.arm(Off, 1)
		mu.Unlock()
		return fmt.Errorf("failpoint %s: %w: %w", f.name, ErrInjected, syscall.ENOSPC)
	default:
		return nil
	}
}

// Hit consumes one hit: nil while the failpoint is disarmed or the trigger
// count has not been reached; at the trigger it crashes (crash mode) or
// returns an injected error (error mode).
func (f *FP) Hit() error {
	if !f.Check() {
		return nil
	}
	return f.Act()
}
