package main

import (
	"runtime"
	"testing"
	"time"
)

// testOptions runs from the benchmark's directory against the
// repository one level up.
func testOptions(workload string, seed int64) options {
	return options{workload: workload, seed: seed, seconds: 1, root: ".."}
}

func setupEnv(t *testing.T, workload string, seed int64) *env {
	t.Helper()
	o := testOptions(workload, seed)
	wl, err := newWorkload(o.root, workload, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := resolveWorkers(0, wl.maxWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 2 {
		workers = 2
	}
	e, _, err := setup(o, workers)
	if err != nil {
		t.Fatal(err)
	}
	if e.warmFailed != 0 {
		t.Fatalf("warm-up traffic failed the scenario check: %v", e.warmFailures)
	}
	return e
}

// TestOutputCheckIsLive corrupts one expectation of the scenario
// check and requires the same traffic that passes it to fail.
func TestOutputCheckIsLive(t *testing.T) {
	e := setupEnv(t, wlEdgecloud, 3)
	good, _, err := e.runDatapath(0.2, false, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if good.failed != 0 || good.packets == 0 {
		t.Fatalf("clean run: %d failed of %d packets: %v", good.failed, good.packets, good.failures)
	}
	for name, corrupt := range map[string]func(c *checker){
		"backend MAC": func(c *checker) { c.backendMAC[5] ^= 0xFF },
		"tenant VNI":  func(c *checker) { c.vni++ },
		"exit port":   func(c *checker) { c.ports[clsBasic] = c.ports[clsMedium] },
	} {
		saved := *e.chk
		corrupt(e.chk)
		bad, _, err := e.runDatapath(0.1, false, time.Now(), nil)
		*e.chk = saved
		if err != nil {
			t.Fatal(err)
		}
		if bad.failed == 0 {
			t.Errorf("corrupted %s: the check passed %d packets", name, bad.packets)
		}
	}
}

// TestSimulatedStatsRepeat: the simulated-time statistics and the
// control script's first-cycle write-set counts are identical for a
// given seed, run to run.
func TestSimulatedStatsRepeat(t *testing.T) {
	for _, wl := range []string{wlEdgecloud, wlFlowchurn} {
		var sims [2]simStats
		var ctl [2]controlResult
		for i := range sims {
			e := setupEnv(t, wl, 11)
			sims[i] = e.simPass(e.simRing)
			cp, err := e.control()
			if err != nil {
				t.Fatal(err)
			}
			cp.run(time.Now(), nil) // exactly one script cycle
			ctl[i] = cp.res
			if sims[i].failed != 0 || ctl[i].failed != 0 {
				t.Fatalf("%s: failures: %v %v", wl, sims[i].failures, ctl[i].failures)
			}
		}
		a, b := sims[0], sims[1]
		if a.latencyNs != b.latencyNs || a.recircs != b.recircs || a.toCPURatio != b.toCPURatio {
			t.Errorf("%s: simulated stats differ: %+v vs %+v", wl, a, b)
		}
		if a.latencyNs == 0 || a.recircs == 0 {
			t.Errorf("%s: simulated stats are zero: %+v", wl, a)
		}
		if (wl == wlFlowchurn) != (a.toCPURatio > 0) {
			t.Errorf("%s: to-CPU ratio %v", wl, a.toCPURatio)
		}
		x, y := ctl[0], ctl[1]
		if x.deltaEntries != y.deltaEntries || x.programReloads != y.programReloads ||
			x.switchesReprogrammed != y.switchesReprogrammed || x.driverAttempts != y.driverAttempts {
			t.Errorf("%s: first-cycle counts differ: %+v vs %+v", wl, x, y)
		}
	}
}

// TestWorkerGuard refuses more workers than the host has CPUs.
func TestWorkerGuard(t *testing.T) {
	if _, err := resolveWorkers(runtime.NumCPU()+1, 0); err == nil {
		t.Fatal("a worker count above nproc was accepted")
	}
	if n, err := resolveWorkers(0, 1); err != nil || n != 1 {
		t.Fatalf("capped default: %d, %v", n, err)
	}
}
