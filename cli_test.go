package earmac

// Golden-file tests for the CLI binaries' JSON output — the first tests
// the CLIs have. Each test shells the real binary out through `go run`
// (no network: the module has no dependencies) and compares stdout
// byte-for-byte against a committed fixture. Everything the binaries
// print is deterministic: seeded RNG, exact integer counters, and
// float64 figures derived by a fixed sequence of IEEE operations (the
// fixtures assume amd64-style non-fused arithmetic, like CI).
// Regenerate with `go test -run TestCLI -update .`.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const cliFixtureDir = "testdata/cli"

// runCLI executes `go <args...>` in the repo root and returns stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("go %v: %v\nstderr:\n%s", args, err, errb.String())
	}
	return out.Bytes()
}

// runCLIExpectError executes `go <args...>` expecting a non-zero exit
// and returns stderr.
func runCLIExpectError(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	if err == nil {
		t.Fatalf("go %v: succeeded, want failure\nstdout:\n%s", args, out.String())
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("go %v: %v (not an exit error)", args, err)
	}
	return errb.String()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(cliFixtureDir, name)
	if *update {
		if err := os.MkdirAll(cliFixtureDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden fixture (%d bytes vs %d); regenerate with -update if the change is deliberate\ngot:\n%.2000s",
			name, len(got), len(want), got)
	}
}

func TestCLISimGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-sim",
		"-alg", "count-hop", "-n", "5", "-rho", "1/3", "-beta", "2",
		"-pattern", "bernoulli", "-seed", "11", "-rounds", "20000", "-json")
	checkGolden(t, "sim-count-hop-bernoulli.json", out)
}

func TestCLISimPhasedGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-sim",
		"-alg", "orchestra", "-n", "6", "-rho", "1/2", "-beta", "3",
		"-phases", "quiet:2000,bursty:2000,poisson-batch:0",
		"-seed", "5", "-rounds", "20000", "-json")
	checkGolden(t, "sim-orchestra-phased.json", out)
}

func TestCLITableGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-table", "-json")
	checkGolden(t, "table.json", out)
}

// TestCLISimReplayConflictingFlags: -replay combined with a flag the
// trace supplies fails fast with the typed conflict error, instead of
// one flag silently winning. The check runs before the trace file is
// even opened, so no fixture trace is needed.
func TestCLISimReplayConflictingFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	cases := []struct {
		name  string
		extra []string
		want  []string // substrings of stderr
	}{
		{"pattern", []string{"-pattern", "bernoulli"}, []string{"-pattern"}},
		{"phases", []string{"-phases", "quiet:100,bursty:0"}, []string{"-phases"}},
		{"record", []string{"-record", "out.trace.jsonl"}, []string{"-record"}},
		{"alg", []string{"-alg", "aloha"}, []string{"-alg"}},
		{"size-and-rate", []string{"-n", "16", "-rho", "1/4"}, []string{"-n", "-rho"}},
		{"rounds", []string{"-rounds", "999"}, []string{"-rounds"}},
		{"topology", []string{"-topology", "line", "-channels", "3"}, []string{"-channels", "-topology"}},
		{"all-three", []string{"-pattern", "uniform", "-phases", "quiet:0", "-record", "x.jsonl"},
			[]string{"-pattern, -phases, -record"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"run", "./cmd/earmac-sim", "-replay", "does-not-exist.trace.jsonl"}, c.extra...)
			stderr := runCLIExpectError(t, args...)
			want := append([]string{"conflicting options", "-replay is exclusive with"}, c.want...)
			for _, w := range want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr missing %q:\n%s", w, stderr)
				}
			}
		})
	}
}

// And the non-conflicting replay modifiers still work: -lenient,
// -checked, and -json are about how to replay, not what to replay.
func TestCLISimReplayCompatibleFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	trace := filepath.Join(t.TempDir(), "run.trace.jsonl")
	runCLI(t, "run", "./cmd/earmac-sim",
		"-alg", "count-hop", "-n", "5", "-rho", "1/3", "-pattern", "bernoulli",
		"-seed", "2", "-rounds", "5000", "-record", trace, "-json")
	out := runCLI(t, "run", "./cmd/earmac-sim", "-replay", trace, "-lenient", "-checked", "-json")
	if !bytes.Contains(out, []byte(`"algorithm": "count-hop"`)) {
		t.Errorf("replay with compatible flags produced unexpected output:\n%s", out)
	}
}

// TestCLISimRecordReplayIdentical closes the loop at the binary level:
// a recorded run and its replay print byte-identical JSON reports.
func TestCLISimRecordReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	trace := filepath.Join(t.TempDir(), "run.trace.jsonl")
	recorded := runCLI(t, "run", "./cmd/earmac-sim",
		"-alg", "orchestra", "-n", "6", "-rho", "1/3", "-beta", "2",
		"-pattern", "poisson-batch", "-seed", "3", "-rounds", "30000",
		"-record", trace, "-json")
	replayed := runCLI(t, "run", "./cmd/earmac-sim", "-replay", trace, "-json")
	if !bytes.Equal(recorded, replayed) {
		t.Errorf("replayed report differs from the recorded run:\nrecorded:\n%s\nreplayed:\n%s", recorded, replayed)
	}
	// And a checked-path replay agrees too (the recorded run already
	// ran checked; -checked pins it explicitly).
	checked := runCLI(t, "run", "./cmd/earmac-sim", "-replay", trace, "-checked", "-json")
	if !bytes.Equal(recorded, checked) {
		t.Errorf("checked replay differs from the recorded run")
	}
}

// TestCLISimNetworkGoldenJSON pins the network report schema end to end:
// topology flags through the binary, per-channel breakdown in the JSON.
func TestCLISimNetworkGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-sim",
		"-alg", "orchestra", "-topology", "line", "-channels", "3", "-n", "5",
		"-rho", "1/2", "-beta", "3", "-pattern", "bernoulli", "-seed", "11",
		"-rounds", "3000", "-json")
	checkGolden(t, "sim-orchestra-line3.json", out)
}

// The earmac-sweep golden-file tests (the last CLI without any): one
// per output mode, small horizons, fixed seeds.
func TestCLISweepSeedGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-sweep",
		"-mode", "seed", "-alg", "orchestra", "-pattern", "bernoulli",
		"-n", "5", "-rho", "1/3", "-beta", "2", "-seeds", "1,2,3", "-rounds", "2000")
	checkGolden(t, "sweep-seed.csv", out)
}

func TestCLISweepChannelsGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-sweep",
		"-mode", "channels", "-topology", "line", "-alg", "count-hop",
		"-n", "4", "-rho", "1/2", "-beta", "4", "-max-channels", "4", "-rounds", "2000")
	checkGolden(t, "sweep-channels.csv", out)
}

func TestCLISweepRhoGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-sweep",
		"-mode", "rho", "-alg", "count-hop", "-n", "5", "-rounds", "1000", "-json")
	checkGolden(t, "sweep-rho.json", out)
}

// TestCLISweepFrontierGoldenCSV pins the ISSUE 8 energy-frontier sweep:
// duty-cycle knobs × jamming intensity, one deterministic CSV. Beyond
// byte-stability, the fixture must witness the frontier itself — within
// every jam intensity, mean energy falls (never rises) as the
// sleep-after-idle threshold tightens, at the price of deliveries.
func TestCLISweepFrontierGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-sweep",
		"-mode", "frontier", "-n", "5", "-rho", "1/4", "-beta", "2",
		"-pattern", "bernoulli", "-seed", "7", "-rounds", "2000")
	checkGolden(t, "sweep-frontier.csv", out)

	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 || lines[0] != "jam_rho,sleep_idle,wake_every,mean_energy,mean_latency,delivered,dropped,sleep_rounds,jammed_rounds,stable" {
		t.Fatalf("unexpected frontier CSV shape:\n%s", out)
	}
	prevJam, prevEnergy := "", 0.0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		energy, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			t.Fatalf("bad mean_energy in %q: %v", line, err)
		}
		// The -sleep-idles default is ordered loosest → tightest, so
		// within one jam_rho group energy must be nonincreasing.
		if f[0] == prevJam && energy > prevEnergy {
			t.Errorf("energy rose from %.3f to %.3f as duty-cycling tightened: %q", prevEnergy, energy, line)
		}
		prevJam, prevEnergy = f[0], energy
	}
}

// TestCLITraceAuditGolden pins the earmac-trace audit subcommand against
// committed corpus traces: a single-channel trace, a network trace
// (per-channel and effective global budgets), and a disrupted network
// trace with a jam stream.
func TestCLITraceAuditGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-trace", "audit",
		"testdata/traces/aloha-stochastic.trace.jsonl",
		"testdata/traces/net-line-orchestra.trace.jsonl",
		"testdata/traces/dis-net-line-aloha.trace.jsonl")
	checkGolden(t, "trace-audit.txt", out)
}

// TestCLITraceDiffGolden pins the earmac-trace diff subcommand: a
// self-diff reports identity and exits 0, and diffing two structurally
// different corpus traces reports the header/config fields, the first
// diverging event, and the footer counter deltas, exiting 1. Both
// outputs are golden.
func TestCLITraceDiffGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	out := runCLI(t, "run", "./cmd/earmac-trace", "diff",
		"testdata/traces/aloha-stochastic.trace.jsonl",
		"testdata/traces/aloha-stochastic.trace.jsonl")
	checkGolden(t, "trace-diff-identical.txt", out)

	cmd := exec.Command("go", "run", "./cmd/earmac-trace", "diff",
		"testdata/traces/aloha-stochastic.trace.jsonl",
		"testdata/traces/dis-net-line-aloha.trace.jsonl")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("diff of different traces: err %v, want exit status 1\nstderr:\n%s", err, stderr.String())
	}
	checkGolden(t, "trace-diff.txt", stdout.Bytes())
}

// TestCLIRejectsBadRates: a rate flag that does not parse, or has a
// zero denominator, is a usage error (exit 2) on both CLIs instead of a
// run at some other rate, and so is a (ρ, β) whose bucket does not fit
// int64 arithmetic, which used to panic, a β above MaxBeta, whose
// round-0 burst used to exhaust memory, and a malformed or negative
// earmac-sweep list entry, which used to run as zero, and a negative
// earmac-sim -trace or -trace-from, whose window used to cover the whole
// run. So is an
// earmac-sweep flag that makes any cell invalid, or names no mode: the
// sweep used to print the CSV header (and any valid cells' rows) and
// exit 1. No usage error prints anything on stdout. The binaries are
// built rather than run via `go run`, which reports every failure as
// exit 1 (and a Go panic exits 2 too, hence the typed error text and no
// "panic:"). Each runs under a 2 GB address-space limit, so a
// regression in the β bound fails the test instead of exhausting the
// host's memory.
func TestCLIRejectsBadRates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binaries")
	}
	bin := t.TempDir()
	runCLI(t, "build", "-o", bin, "./cmd/earmac-sim", "./cmd/earmac-sweep")
	cases := []struct {
		cmd  string
		args []string
		want string // substring of stderr
	}{
		{"earmac-sim", []string{"-rho", "1/0"}, `bad rate "1/0": zero denominator`},
		{"earmac-sim", []string{"-jam-rho", "1/0"}, `bad rate "1/0": zero denominator`},
		{"earmac-sweep", []string{"-rho", "1/0"}, `bad -rho "1/0": zero denominator`},
		{"earmac-sweep", []string{"-rho", "abc/zz"}, `bad -rho "abc/zz"`},
		{"earmac-sim", []string{"-rho", "1/10", "-beta", "1000000000000000000", "-rounds", "10"}, "bad burstiness"},
		{"earmac-sim", []string{"-rho", "1/1", "-beta", "9223372036854775807", "-rounds", "10"}, "bad burstiness"},
		{"earmac-sim", []string{"-topology", "line", "-channels", "16", "-rho", "1/1000000000000000000", "-rounds", "10"},
			"bad injection rate"},
		{"earmac-sim", []string{"-alg", "aloha", "-jam-rho", "1/10", "-jam-beta", "1000000000000000000", "-rounds", "10"},
			"bad burstiness"},
		{"earmac-sim", []string{"-rho", "1/3", "-beta", "3000000000000000000"}, "bad burstiness"},
		{"earmac-sim", []string{"-alg", "aloha", "-n", "6", "-rounds", "200", "-outages", "0@10+9223372036854775807"},
			"bad topology"},
		{"earmac-sim", []string{"-trace", "-1"}, "bad -trace -1: negative round count"},
		{"earmac-sim", []string{"-alg", "orchestra", "-n", "4", "-rounds", "20", "-trace", "3", "-trace-from", "-5"},
			"bad -trace-from -5: negative round"},
		{"earmac-sweep", []string{"-mode", "frontier", "-jam-rhos", "0,-1/4"}, `bad -jam-rhos: negative rate "-1/4"`},
		{"earmac-sweep", []string{"-mode", "frontier", "-sleep-idles", "0,-5"}, "bad -sleep-idles: negative threshold -5"},
		{"earmac-sweep", []string{"-mode", "seed", "-seeds", "1,x"}, `bad seed list "1,x"`},
		{"earmac-sweep", []string{"-mode", "cap", "-alg", "orchestra", "-n", "2"}, "empty at -n 2"},
		{"earmac-sweep", []string{"-mode", "channels", "-topology", "line", "-max-channels", "0"}, "empty at -max-channels 0"},
		{"earmac-sweep", []string{"-alg", "nope"}, `cell 0: earmac: unknown algorithm "nope"`},
		{"earmac-sweep", []string{"-n", "-1"}, "cell 0: earmac: count-hop: bad system size"},
		{"earmac-sweep", []string{"-pattern", "nope"}, `cell 0: earmac: unknown pattern "nope"`},
		{"earmac-sweep", []string{"-beta", "-4"}, "cell 0: earmac: bad burstiness"},
		{"earmac-sweep", []string{"-mode", "frontier", "-alg", "orchestra", "-rounds", "100"}, `cell 1: earmac: conflicting options: algorithm "orchestra"`},
		{"earmac-sweep", []string{"-mode", "bogus"}, `unknown mode "bogus"`},
		{"earmac-sweep", []string{"-mode", "channels"}, "-mode channels needs -topology"},
	}
	for _, c := range cases {
		cmd := exec.Command("sh", append([]string{"-c", `ulimit -v 2000000 && exec "$0" "$@"`, filepath.Join(bin, c.cmd)}, c.args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 || stdout.Len() > 0 {
			t.Errorf("%s %v: err %v, want exit status 2 and nothing on stdout\nstdout:\n%.500s", c.cmd, c.args, err, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.want) || strings.Contains(stderr.String(), "panic:") {
			t.Errorf("%s %v: stderr missing %q or panicking:\n%s", c.cmd, c.args, c.want, stderr.String())
		}
	}
}

// TestCLIAuditRejectsMalformedHeader: earmac-trace audit reads a
// trace's header config as earmac-sim -replay does, so a header config
// that does not validate (a bucket overflowing int64 among them), or
// that leaves a rate or the channel count the audit reads unset, is a
// read error (exit 2) and never a panic; so is a channel id in a trace
// whose header declares no channels, and a valid network config whose
// effective global budget (ρ, max(β, C)) overflows int64 arithmetic.
// The binary is built rather than run via `go run`, which reports every
// failure as exit 1.
func TestCLIAuditRejectsMalformedHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := t.TempDir()
	runCLI(t, "build", "-o", bin, "./cmd/earmac-trace")
	traces := map[string]string{
		"no-channels.jsonl": `{"earmac_trace":2,"n":4,"rounds":10,"channels":2,"config":{"algorithm":"orchestra","n":4,"rho_num":1,"rho_den":2,"beta":2,"topology":"line","rounds":10}}
{"r":1,"i":[[0,1]]}
`,
		"zero-rate.jsonl": `{"earmac_trace":1,"n":4,"rounds":10,"config":{"algorithm":"orchestra","n":4,"rho_num":0,"rho_den":0,"beta":2,"rounds":10}}
{"r":1,"i":[[0,1]]}
`,
		"no-jam-den.jsonl": `{"earmac_trace":3,"n":4,"rounds":10,"config":{"algorithm":"aloha","n":4,"rho_num":1,"rho_den":2,"beta":2,"rounds":10,"jam_rho_num":1}}
{"r":1,"k":"jam"}
`,
		"overflow.jsonl": `{"earmac_trace":3,"n":8,"rounds":10,"config":{"algorithm":"orchestra","n":8,"rho_num":1,"rho_den":10,"beta":1000000000000000000,"rounds":10}}
{"r":1,"i":[[0,1]]}
`,
		"effective-global-overflow.jsonl": `{"earmac_trace":3,"n":4,"rounds":10,"channels":2,"config":{"algorithm":"orchestra","n":4,"rho_num":2,"rho_den":6000000000000000001,"beta":1,"topology":"line","channels":2,"rounds":10}}
{"r":1,"i":[[0,1]]}
`,
		"channel-id.jsonl": `{"earmac_trace":3,"n":4,"rounds":10,"config":{"algorithm":"orchestra","n":4,"rho_num":1,"rho_den":2,"beta":2,"rounds":10}}
{"r":1,"c":1,"i":[[0,1]]}
`,
	}
	dir := t.TempDir()
	for name, body := range traces {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(filepath.Join(bin, "earmac-trace"), "audit", path)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("audit %s: err %v, want exit status 2\nstdout:\n%s", name, err, stdout.String())
		}
		if strings.Contains(stderr.String(), "panic:") {
			t.Errorf("audit %s panicked:\n%s", name, stderr.String())
		}
	}
}

// And the sweep CSV error path: -mode channels without -topology fails
// fast instead of sweeping a single channel silently.
func TestCLISweepChannelsNeedsTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out via go run")
	}
	stderr := runCLIExpectError(t, "run", "./cmd/earmac-sweep", "-mode", "channels")
	if !strings.Contains(stderr, "-topology") {
		t.Errorf("stderr missing -topology hint:\n%s", stderr)
	}
}
