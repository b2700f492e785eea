package bamboort_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bamboort"
	"repro/internal/bbfuzz"
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
		ra, rb := closeRun(t, live), closeRun(t, rev)
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

// fuzzSession is a program FuzzSessionCheckpoint restores into: its system,
// a deterministic session config on a spread two-core layout, and the feeds
// its seed checkpoints are taken between.
type fuzzSession struct {
	sys   *core.System
	cfg   core.ExecConfig
	feeds [][]bamboort.Inject
}

// fuzzSessions are KVStore and the generated members of the bbfuzz corpus,
// fed as bbfuzz's session mode feeds them.
func fuzzSessions(tb testing.TB) []fuzzSession {
	kv := kvSystem(tb)
	out := []fuzzSession{{sys: kv, cfg: core.ExecConfig{Args: kvArgs}, feeds: [][]bamboort.Inject{kvBatch(5), kvBatch(35)}}}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 64, 197, 350, 1564} {
		p := bbfuzz.GenerateSeed(seed)
		sys, err := core.CompileSource(p.Source())
		if err != nil {
			tb.Fatal(err)
		}
		extras := bbfuzz.SessionExtras(p, 4)
		out = append(out, fuzzSession{sys: sys, feeds: [][]bamboort.Inject{extras[:len(extras)/2], extras[len(extras)/2:]}})
	}
	for i := range out {
		// A spread layout, not a synthesized one: every fuzz worker builds it.
		s := &out[i]
		s.cfg.Engine, s.cfg.Machine, s.cfg.Layout = core.Deterministic, machine.TilePro64().WithCores(2), bamboort.SpreadLayout(s.sys.Prog, 2)
	}
	return out
}

// FuzzSessionCheckpoint: restoring arbitrary bytes into any of the
// fuzzSessions returns an error or an engine, never a panic or a hang, and
// whatever restores encodes back to exactly the bytes it came from. The
// seeds are each program's checkpoints before, between and after its feeds.
func FuzzSessionCheckpoint(f *testing.F) {
	progs := fuzzSessions(f)
	for i, p := range progs {
		var out bytes.Buffer
		cfg := p.cfg
		cfg.Out = &out
		sn, err := p.sys.StartSession(context.Background(), cfg)
		if err != nil {
			f.Fatal(err)
		}
		for k := 0; k <= len(p.feeds); k++ {
			if k > 0 {
				if _, err := sn.Feed(context.Background(), p.feeds[k-1]); err != nil {
					f.Fatal(err)
				}
			}
			ck, err := sn.Checkpoint("fz", out.Bytes())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), ck)
		}
		sn.Close()
	}
	f.Fuzz(func(t *testing.T, prog uint8, data []byte) {
		p := progs[int(prog)%len(progs)]
		rs, err := p.sys.RestoreSession(p.cfg, "fz", data)
		if err != nil {
			if !errors.Is(err, bamboort.ErrCheckpoint) {
				t.Fatalf("error outside ErrCheckpoint: %v", err)
			}
			return
		}
		defer rs.Close()
		// Output is carried, not re-read: compare everything after it by
		// re-encoding with the output the checkpoint held.
		again, err := rs.Checkpoint("fz", checkpointOutput(t, p.sys, p.cfg, data))
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
	rs, err := sys.RestoreSession(cfg, "fz", data)
	if err != nil {
		t.Fatal(err)
	}
	rs.Close()
	return out.Bytes()
}
