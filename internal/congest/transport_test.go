package congest

import (
	"fmt"
	"reflect"
	"testing"
)

// TestTransportRegistry checks name resolution: both shipped backends are
// registered, the empty name selects local, and unknown names fail
// NewNetwork with the available list.
func TestTransportRegistry(t *testing.T) {
	names := Transports()
	want := map[string]bool{DefaultTransport: false, TransportSharded: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("transport %q not registered (have %v)", n, names)
		}
	}

	nw, err := NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Transport().Name(); got != DefaultTransport {
		t.Errorf("default transport = %q, want %q", got, DefaultTransport)
	}
	nw.Close()

	if _, err := NewNetwork(4, WithTransport("bogus")); err == nil {
		t.Error("unknown transport accepted")
	}
}

// transportMsgs builds a deterministic all-pairs-ish message set with
// payloads carved from the network's arena.
func transportMsgs(nw *Network, round int) []Message {
	n := nw.N()
	var msgs []Message
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d || (s+d+round)%3 == 0 {
				continue
			}
			p := nw.AcquirePayload(2)
			p = append(p, Word(round*1000+s*n+d), Word(s^d))
			msgs = append(msgs, Message{Src: NodeID(s), Dst: NodeID(d), Data: p})
		}
	}
	return msgs
}

// snapshotInboxes deep-copies delivered inboxes for cross-backend
// comparison.
func snapshotInboxes(inboxes [][]Message) [][]Message {
	out := make([][]Message, len(inboxes))
	for i, ib := range inboxes {
		out[i] = make([]Message, len(ib))
		for j, m := range ib {
			out[i][j] = Message{Src: m.Src, Dst: m.Dst, Data: append([]Word(nil), m.Data...)}
		}
	}
	return out
}

// TestShardedDeliverMatchesLocal drives the same exchange sequence through
// both backends — including the sharded parallel path, forced by dropping
// the serial threshold — and requires bit-identical inboxes and metrics.
func TestShardedDeliverMatchesLocal(t *testing.T) {
	const n = 17 // deliberately not divisible by the shard count
	for _, shards := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			local, err := NewNetwork(n)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := NewNetwork(n, WithTransport(TransportSharded), WithTransportShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			defer sharded.Close()
			// Force the parallel path regardless of message count.
			sharded.transport.(*shardedTransport).serialThreshold = 0

			for round := 0; round < 6; round++ {
				lm := transportMsgs(local, round)
				sm := transportMsgs(sharded, round)
				label := fmt.Sprintf("round-%d", round)
				li, err := local.ExchangeDirect(label, lm)
				if err != nil {
					t.Fatal(err)
				}
				lsnap := snapshotInboxes(li)
				si, err := sharded.ExchangeDirect(label, sm)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lsnap, snapshotInboxes(si)) {
					t.Fatalf("round %d: sharded inboxes diverge from local", round)
				}
			}
			if lr, sr := local.Rounds(), sharded.Rounds(); lr != sr {
				t.Errorf("rounds diverge: local %d, sharded %d", lr, sr)
			}
			lmx, smx := local.Metrics(), sharded.Metrics()
			if lmx.Words != smx.Words || lmx.Phases != smx.Phases {
				t.Errorf("metrics diverge: local %+v, sharded %+v", lmx, smx)
			}
		})
	}
}

// TestShardedPayloadBorrowContract re-runs the two-generation borrow test
// against the sharded backend: delivered payloads must survive exactly one
// further exchange, and the arena must recycle in steady state.
func TestShardedPayloadBorrowContract(t *testing.T) {
	nw, err := NewNetwork(6, WithTransport(TransportSharded), WithTransportShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	st := nw.transport.(*shardedTransport)
	st.serialThreshold = 0

	send := func(tag Word) [][]Message {
		p := nw.AcquirePayload(2)
		p = append(p, tag, tag+1)
		inboxes, err := nw.ExchangeDirect("payload", []Message{{Src: 0, Dst: 5, Data: p}})
		if err != nil {
			t.Fatal(err)
		}
		return inboxes
	}

	inboxes := send(10)
	got := inboxes[5][0].Data
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("first exchange delivered %v", got)
	}
	inboxes2 := send(20)
	if got[0] != 10 || got[1] != 11 {
		t.Fatalf("payload of the previous exchange was clobbered early: %v", got)
	}
	if d := inboxes2[5][0].Data; d[0] != 20 || d[1] != 21 {
		t.Fatalf("second exchange delivered %v", d)
	}
	for i := 0; i < 50; i++ {
		send(Word(100 + i))
	}
	for gen, a := range st.payloads {
		if len(a.blocks) != 1 {
			t.Fatalf("generation %d grew to %d blocks; steady state should recycle one", gen, len(a.blocks))
		}
	}
}

// TestTransportStats checks the counters both backends report.
func TestTransportStats(t *testing.T) {
	nw, err := NewNetwork(8, WithTransport(TransportSharded), WithTransportShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.transport.(*shardedTransport).serialThreshold = 0

	base := nw.TransportStats()
	if base.Transport != TransportSharded || base.Shards != 2 {
		t.Fatalf("stats identity = %q/%d, want sharded/2", base.Transport, base.Shards)
	}
	// Nodes 0-3 are shard 0, nodes 4-7 shard 1: one intra, one cross.
	msgs := []Message{
		{Src: 0, Dst: 3, Data: []Word{1}},
		{Src: 1, Dst: 6, Data: []Word{2}},
	}
	if _, err := nw.ExchangeDirect("stats", msgs); err != nil {
		t.Fatal(err)
	}
	d := nw.TransportStats()
	if d.Deliveries != 1 || d.Messages != 2 || d.IntraShard != 1 || d.CrossShard != 1 {
		t.Errorf("delta = %+v, want 1 delivery / 2 messages / 1 intra / 1 cross", d)
	}
	if d.Flushes == 0 {
		t.Error("parallel delivery recorded no batch flushes")
	}

	local, err := NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if _, err := local.ExchangeDirect("stats", []Message{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	ls := local.TransportStats()
	if ls.Transport != DefaultTransport || ls.Shards != 1 || ls.Deliveries != 1 || ls.Messages != 1 {
		t.Errorf("local stats = %+v", ls)
	}
	if ls.CrossShard != 0 || ls.Flushes != 0 {
		t.Errorf("local transport reported shard traffic: %+v", ls)
	}
}
