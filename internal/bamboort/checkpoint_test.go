package bamboort_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/core"
	"repro/internal/machine"
)

// kvCheckpointConfig is a deterministic KVStore session on a synthesized
// layout of cores cores, writing its output to out.
func kvCheckpointConfig(tb testing.TB, sys *core.System, cores int, out *bytes.Buffer) core.ExecConfig {
	tb.Helper()
	prep, err := sys.Prepare(context.Background(), core.PrepareConfig{Cores: cores, Seed: 1, Args: kvArgs})
	if err != nil {
		tb.Fatal(err)
	}
	return core.ExecConfig{Engine: core.Deterministic, Machine: prep.Machine, Layout: prep.Layout, Args: kvArgs, Out: out}
}

func render(t *testing.T, sn *core.Session, batch []bamboort.Inject) []core.Reply {
	t.Helper()
	objs, err := sn.Feed(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]core.Reply, len(objs))
	for i, o := range objs {
		reps[i] = core.RenderReply(o, "replied", []string{"reply", "version", "found"})
	}
	return reps
}

// TestCheckpointRestoreEqualsLive: a session restored from its own
// checkpoint before every batch answers every request, counts every cycle
// and invocation, and ends in the same state, byte for byte, as one that
// never stopped.
func TestCheckpointRestoreEqualsLive(t *testing.T) {
	sys := kvSystem(t)
	for _, cores := range []int{1, 3} {
		var liveOut, revOut bytes.Buffer
		cfg := kvCheckpointConfig(t, sys, cores, &liveOut)
		live, err := sys.StartSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := sys.StartSession(context.Background(), kvCheckpointConfig(t, sys, cores, &revOut))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 12; round++ {
			ck, err := rev.Checkpoint("kv", revOut.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			rev.Close()
			revOut.Reset()
			rcfg := cfg
			rcfg.Out = &revOut
			if rev, err = sys.RestoreSession(rcfg, "kv", ck); err != nil {
				t.Fatalf("round %d: restore: %v", round, err)
			}
			if again, err := rev.Checkpoint("kv", revOut.Bytes()); err != nil || !bytes.Equal(again, ck) {
				t.Fatalf("round %d: the restored session encodes differently (err %v)", round, err)
			}
			batch := make([]bamboort.Inject, 1+round*7)
			for i := range batch {
				batch[i] = kvReq((i+round)&1, (i*13+round)%80, i+round*1000)
			}
			a, b := render(t, live, batch), render(t, rev, batch)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cores=%d round %d: replies diverge\nlive:     %+v\nrestored: %+v", cores, round, a, b)
			}
		}
		ca, err := live.Checkpoint("kv", liveOut.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		cb, err := rev.Checkpoint("kv", revOut.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ca, cb) {
			t.Errorf("cores=%d: final states differ (%d vs %d checkpoint bytes)", cores, len(ca), len(cb))
		}
		ra, rb := live.Close(), rev.Close()
		if !reflect.DeepEqual(ra, rb) || liveOut.String() != revOut.String() {
			t.Errorf("cores=%d: results diverge: live %+v, restored %+v", cores, ra, rb)
		}
		t.Logf("cores=%d: %d checkpoint bytes, %d cycles", cores, len(ca), ra.TotalCycles)
	}
}

// TestCheckpointRejects: a checkpoint taken for another program, a cut
// one, and a concurrent-engine session all fail with a clear error.
func TestCheckpointRejects(t *testing.T) {
	sys := kvSystem(t)
	var out bytes.Buffer
	cfg := kvCheckpointConfig(t, sys, 2, &out)
	sn, err := sys.StartSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	render(t, sn, kvBatch(16))
	ck, err := sn.Checkpoint("kv-a", out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.RestoreSession(cfg, "kv-b", ck)
	if !errors.Is(err, bamboort.ErrCheckpoint) || !strings.Contains(err.Error(), `taken for program "kv-a"`) {
		t.Fatalf("mismatched fingerprint: err = %v", err)
	}
	for _, n := range []int{0, 3, len(ck) / 2, len(ck) - 1} {
		if _, err := sys.RestoreSession(cfg, "kv-a", ck[:n]); !errors.Is(err, bamboort.ErrCheckpoint) {
			t.Fatalf("checkpoint cut at %d of %d: err = %v", n, len(ck), err)
		}
	}
	conc := kvSession(t, core.Concurrent, 2, core.ExecConfig{})
	if _, err := conc.Checkpoint("kv", nil); err == nil {
		t.Fatal("a concurrent-engine session encoded a checkpoint")
	}
}

// FuzzSessionCheckpoint: restoring arbitrary bytes returns an error or an
// engine, never a panic or a hang, and whatever restores encodes back to
// exactly the bytes it came from.
func FuzzSessionCheckpoint(f *testing.F) {
	sys := kvSystem(f)
	var out bytes.Buffer
	// A spread layout, not a synthesized one: every fuzz worker builds it.
	cfg := core.ExecConfig{Engine: core.Deterministic, Machine: machine.TilePro64().WithCores(2),
		Layout: bamboort.SpreadLayout(sys.Prog, 2), Args: kvArgs, Out: &out}
	sn, err := sys.StartSession(context.Background(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 5, 40} {
		if n > 0 {
			if _, err := sn.Feed(context.Background(), kvBatch(n)); err != nil {
				f.Fatal(err)
			}
		}
		ck, err := sn.Checkpoint("kv", out.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ck)
	}
	sn.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := cfg
		cfg.Out = nil
		rs, err := sys.RestoreSession(cfg, "kv", data)
		if err != nil {
			if !errors.Is(err, bamboort.ErrCheckpoint) {
				t.Fatalf("error outside ErrCheckpoint: %v", err)
			}
			return
		}
		defer rs.Close()
		// Output is carried, not re-read: compare everything after it by
		// re-encoding with the output the checkpoint held.
		again, err := rs.Checkpoint("kv", checkpointOutput(t, sys, cfg, data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("restored engine encodes to %d different bytes", len(again))
		}
	})
}

// checkpointOutput restores data with an output buffer and returns what
// the restore wrote there: the program output the checkpoint carries.
func checkpointOutput(t *testing.T, sys *core.System, cfg core.ExecConfig, data []byte) []byte {
	var out bytes.Buffer
	cfg.Out = &out
	rs, err := sys.RestoreSession(cfg, "kv", data)
	if err != nil {
		t.Fatal(err)
	}
	rs.Close()
	return out.Bytes()
}
