package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/driver_digests.txt from the current outputs")

const driverDigestsFile = "testdata/driver_digests.txt"

// driverPolicies are the policies the driver guardrail replays and runs
// under constant backlog; SC runs on a single 128-processor cluster.
var driverPolicies = []string{"GS", "LS", "LP", "GS-EASY", "GS-CONS", "SC", "GS-SPF", "LS-sorted"}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// driverOutputs runs the replay and constant-backlog job sources under
// every guardrail policy and returns the digest of each output, keyed by
// name in run order. Each policy replays two logs: the float-time DAS log
// compressed 3x ("replay/"), and its whole-second SWF round trip at load 1
// ("replay-int/"), where arrivals tie with departures.
func driverOutputs(t *testing.T) [][2]string {
	t.Helper()
	logs := []struct {
		name string
		recs []dastrace.Record
		load float64
	}{
		{"replay/", replayRecords(3000), 3},
		{"replay-int/", intRecords(t, 3000), 1},
	}
	var out [][2]string
	add := func(name, s string) { out = append(out, [2]string{name, digest(s)}) }
	for _, pol := range driverPolicies {
		clusters, limit := []int{32, 32, 32, 32}, 16
		if pol == "SC" {
			clusters, limit = []int{128}, 128
		}
		for _, lg := range logs {
			var csv, jsonl bytes.Buffer
			o := obs.New(&jsonl)
			res, err := Replay(ReplayConfig{
				ClusterSizes:    clusters,
				Records:         lg.recs,
				Policy:          pol,
				ComponentLimit:  limit,
				ExtensionFactor: workload.DefaultExtensionFactor,
				LoadFactor:      lg.load,
				Seed:            1,
				ScheduleWriter:  &csv,
				Observer:        o,
			})
			if err != nil {
				t.Fatalf("%s%s: %v", lg.name, pol, err)
			}
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			if lg.load == 1 && tieInstants(jsonl.String()) == 0 {
				t.Fatalf("%s%s: no arrival ties with a departure", lg.name, pol)
			}
			add(lg.name+pol, fmt.Sprintf("%v", res))
			add(lg.name+pol+".csv", csv.String())
			add(lg.name+pol+".jsonl", jsonl.String())
		}

		bres, err := RunBacklog(BacklogConfig{
			ClusterSizes: clusters,
			Spec:         testSpec(t, limit, len(clusters)),
			Policy:       pol,
			WarmupTime:   20_000,
			MeasureTime:  100_000,
			Seed:         5,
		})
		if err != nil {
			t.Fatalf("backlog %s: %v", pol, err)
		}
		add("backlog/"+pol, fmt.Sprintf("%v", bres))
	}
	return out
}

// TestDriverOutputsPinned pins the replay and constant-backlog outputs
// across builds: the %v of every ReplayResult and BacklogResult, the
// replay schedule CSV and the replay JSONL trace must hash to the digests
// recorded in testdata/driver_digests.txt. TestSameSeedMatrix compares
// two runs of one build and pins the open-system digests in the same
// file; this one catches a refactor of the simulation driver that
// changes any replay or backlog output. Regenerate the file with
//
//	go test ./internal/core -run 'TestDriverOutputsPinned|TestSameSeedMatrix' -update-digests
//
// only for an intended output change.
func TestDriverOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 36k jobs and runs six constant-backlog simulations")
	}
	pinDigests(t, func(name string) bool { return !isPoissonDigest(name) }, driverOutputs(t))
}

// pinDigests checks got against the lines of testdata/driver_digests.txt
// whose names owns selects: the same names, the same digests. With
// -update-digests it rewrites those lines instead, in the place of the
// first of them, and keeps every other line as it is.
func pinDigests(t *testing.T, owns func(name string) bool, got [][2]string) {
	t.Helper()
	f, err := os.Open(driverDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var file strings.Builder
	wrote := false
	writeGot := func() {
		if !wrote {
			for _, kv := range got {
				fmt.Fprintf(&file, "%s %s\n", kv[0], kv[1])
			}
			wrote = true
		}
	}
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		if !owns(name) {
			fmt.Fprintln(&file, sc.Text())
			continue
		}
		want[name] = sum
		writeGot()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if *updateDigests {
		writeGot()
		if err := os.WriteFile(driverDigestsFile, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%d recorded digests, %d outputs", len(want), len(got))
	}
	for _, kv := range got {
		if w, ok := want[kv[0]]; !ok {
			t.Errorf("%s: no recorded digest", kv[0])
		} else if w != kv[1] {
			t.Errorf("%s: digest %s, recorded %s", kv[0], kv[1], w)
		}
	}
}
