package pbft

import (
	"testing"
	"time"

	"gpbft/internal/consensus"
)

// stops returns the IDs of the timers acts stop, in order.
func stops(acts []consensus.Action) []consensus.TimerID {
	var out []consensus.TimerID
	for _, a := range acts {
		if st, ok := a.(consensus.StopTimer); ok {
			out = append(out, st.ID)
		}
	}
	return out
}

// armAll arms ws in the given order and returns each one's timer ID.
func armAll(t *testing.T, d *Detector, ws ...wait) map[wait]consensus.TimerID {
	t.Helper()
	ids := make(map[wait]consensus.TimerID)
	for _, w := range ws {
		acts := d.arm(w, time.Second, nil)
		if len(acts) != 1 {
			t.Fatalf("arming %v: %d actions, want one start", w, len(acts))
		}
		ids[w] = acts[0].(consensus.StartTimer).ID
		if again := d.arm(w, time.Second, nil); len(again) != 0 {
			t.Fatalf("arming %v twice started a second timer", w)
		}
	}
	return ids
}

// TestDetectorStopsInKeyOrder: however the deadlines were armed, a view
// change's start stops them in key order — progress, slots ascending,
// hold, view change — and entering the new view leaves the progress
// deadline armed.
func TestDetectorStopsInKeyOrder(t *testing.T) {
	order := []wait{slotWait(9), viewChangeWait, slotWait(3), holdWait, progressWait, slotWait(5)}
	want := []wait{progressWait, slotWait(3), slotWait(5), slotWait(9), holdWait, viewChangeWait}
	for run := 0; run < 20; run++ {
		d := NewDetector(consensus.NewTimerAllocator(), time.Second)
		ids := armAll(t, d, order...)
		got := stops(d.stopFrom(waitProgress, nil))
		if len(got) != len(want) {
			t.Fatalf("%d stops, want %d", len(got), len(want))
		}
		for i, w := range want {
			if got[i] != ids[w] {
				t.Fatalf("stop %d is timer %d, want %v's %d", i, got[i], w, ids[w])
			}
		}
		ids = armAll(t, d, order...)
		if got := stops(d.stopFrom(waitSlot, nil)); len(got) != len(want)-1 {
			t.Fatalf("entering a view stopped %d deadlines, want all but progress", len(got))
		}
		if _, armed := d.find(progressWait); !armed {
			t.Fatal("entering a view stopped the progress deadline")
		}
	}
}

// TestDetectorFiringIsOneLookup: a firing names the deadline it belongs
// to and disarms it; a second firing of the same timer, or one the
// detector never armed or already stopped, is stale.
func TestDetectorFiringIsOneLookup(t *testing.T) {
	d := NewDetector(consensus.NewTimerAllocator(), time.Second)
	ids := armAll(t, d, slotWait(4), progressWait, holdWait)
	if w, ok := d.fired(ids[slotWait(4)]); !ok || w != slotWait(4) {
		t.Fatalf("firing of slot 4's timer read %v, %v", w, ok)
	}
	if _, ok := d.fired(ids[slotWait(4)]); ok {
		t.Fatal("a deadline fired twice")
	}
	d.stop(holdWait, nil)
	if _, ok := d.fired(ids[holdWait]); ok {
		t.Fatal("a stopped deadline fired")
	}
	if w, ok := d.fired(ids[progressWait]); !ok || w != progressWait {
		t.Fatalf("firing of the progress timer read %v, %v", w, ok)
	}
	if len(d.armed) != 0 {
		t.Fatalf("%d deadlines left armed", len(d.armed))
	}
}

// TestDetectorOutlivesTheEra: entering an era drops the deadlines without
// a stop — their late firings are stale — and keeps the rounds timed and
// the backoff; a view the era opens is not fresh.
func TestDetectorOutlivesTheEra(t *testing.T) {
	d := NewDetector(consensus.NewTimerAllocator(), 0)
	for i := 0; i < roundWindow; i++ {
		d.executed(400*time.Millisecond, true)
	}
	d.fresh = true
	d.suspect()
	ids := armAll(t, d, progressWait, slotWait(7))
	d.enterEra()
	for w, id := range ids {
		if _, ok := d.fired(id); ok {
			t.Fatalf("%v of the previous era fired", w)
		}
	}
	if got := d.timeout(); got != roundFactor*400*time.Millisecond {
		t.Fatalf("timeout %v after the era, want %v from the rounds before it", got, roundFactor*400*time.Millisecond)
	}
	if d.backoff != 1 || d.fresh {
		t.Fatalf("backoff %d, fresh %v after the era, want 1 and false", d.backoff, d.fresh)
	}
	if got := d.patience(); got != 2*roundFactor*400*time.Millisecond {
		t.Fatalf("patience %v, want the timeout doubled once", got)
	}
}
