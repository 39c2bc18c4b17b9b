package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// TestManifestMatchesBenchmarkJSON keeps the checked-in BENCHMARK.json in
// step with the definitions here: regenerate it with -manifest.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if code := writeManifest(&got, os.Stderr); code != 0 {
		t.Fatalf("writeManifest exit %d", code)
	}
	if got.String() != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: bash perfbench/run.sh -manifest > BENCHMARK.json")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ecvslrc/internal/lrc.(*Node).accessMiss":           "lrc",
		"ecvslrc/internal/apps.sorProgram[go.shape.*uint8]": "apps",
		"ecvslrc/internal/platform/models/rdma_100g.init":   "platform",
		"ecvslrc/internal/run.RunWith.func1":                "run",
		"ecvslrc/perfbench.accessLoop[go.shape.*uint8]":     "bench",
		"main.recordCells.func1":                            "bench",
		"runtime.chansend1":                                 "",
		"ecvslrcx/internal/sim.x":                           "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileAttribution decodes a real CPU profile of a busy loop in this
// package and finds its samples charged to "bench".
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if x == 0 {
		t.Log("unreachable")
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, err := attribute(p, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if a.total == 0 || a.byLayer["bench"] == 0 {
		t.Fatalf("no samples charged to bench: %+v", a)
	}
	var sum int64
	for _, l := range layers {
		sum += a.byLayer[l]
	}
	if sum+a.noRepo != a.total {
		t.Errorf("layers %d + no-repo %d != total %d", sum, a.noRepo, a.total)
	}
}

func spin(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestHistQuantile(t *testing.T) {
	h := map[int64]int64{1: 5, 2: 4, 7: 1}
	if got := histQuantile(h, 0.9); got != 2 {
		t.Errorf("p90 = %v, want 2", got)
	}
	if got := histQuantile(h, 1); got != 7 {
		t.Errorf("p100 = %v, want 7", got)
	}
	if got := histQuantile(nil, 0.9); got != 0 {
		t.Errorf("empty p90 = %v, want 0", got)
	}
}
