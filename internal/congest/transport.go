package congest

// The Transport seam: Network stays the single accounting and fault-injection
// authority, while the mechanics of moving a phase's message set into
// per-destination inboxes — and of pooling the payload storage those inboxes
// reference — live behind the Transport interface. Backends register
// themselves by name; NewNetwork resolves the requested backend (default
// "local") at construction time.
//
// # Contract for backend implementers
//
// A Transport is driven from one goroutine (the network's accounting
// goroutine). Every call sequence looks like:
//
//	p := t.AcquirePayload(k)   // zero or more times between delivers
//	... caller appends words to p, wraps it in Messages ...
//	inboxes := t.Deliver(msgs) // one communication phase
//	t.Barrier()                // Network calls it right after Deliver
//
// Deliver must group msgs by Message.Dst preserving input order — the
// per-destination concatenation order is part of the simulator's determinism
// contract, and the cross-backend equivalence suite enforces it bit-for-bit.
// A backend may parallelize internally however it likes as long as the
// returned inboxes are identical to the single-goroutine reference.
//
// Recycling rules (the borrow/arena contract, from the backend's side):
//
//   - The [][]Message returned by Deliver is owned by the transport and may
//     be reused by the NEXT Deliver call; the caller reads it until then.
//   - Slices handed out by AcquirePayload become referenced by the inboxes
//     of the next Deliver, so a transport recycles payload storage one
//     generation late: flip generations at each Deliver and reset only the
//     generation the PREVIOUS inboxes pointed at (two-generation arena).
//   - When truncating reused inbox or batch buffers, clear the stale
//     Message values first — a stale Message past the new length would pin
//     the previous generation's payload blocks at their high-water mark.
//
// Fault injection never reaches a Transport: the Network draws and accounts
// the whole fault schedule before Deliver is called (see faults.go), which
// is what makes a FaultPlan replay identically on every backend.

import (
	"fmt"
	"sort"
	"sync"
)

// Transport moves one communication phase's messages into per-destination
// inboxes and owns the pooled storage behind them. See the package-level
// contract above for the rules a backend must follow.
type Transport interface {
	// Name reports the registered backend name ("local", "sharded", ...).
	Name() string
	// Deliver groups msgs by destination, preserving input order, and
	// returns the per-destination inboxes (borrowed until the next Deliver).
	Deliver(msgs []Message) [][]Message
	// AcquirePayload returns a zero-length word slice with the given
	// capacity, carved from the transport's payload arena.
	AcquirePayload(words int) []Word
	// Barrier blocks until all in-flight delivery work is visible to the
	// caller. Backends whose Deliver already joins its workers implement it
	// as a no-op; the Network calls it after every Deliver regardless.
	Barrier()
	// Stats returns cumulative transport counters (monotone).
	Stats() TransportStats
	// Close releases backend resources (worker shards, arenas). The
	// transport must not be used after Close; Close is idempotent.
	Close()
}

// TransportStats counts the work a transport performed. All counters are
// cumulative since construction. The shard-related counters stay zero on
// single-goroutine backends.
type TransportStats struct {
	// Transport is the backend name, Shards its worker-shard count
	// (1 for local).
	Transport string `json:"transport"`
	Shards    int    `json:"shards"`
	// Deliveries counts Deliver calls (communication phases with
	// materialized payloads); Messages counts messages moved.
	Deliveries int64 `json:"deliveries"`
	Messages   int64 `json:"messages"`
	// IntraShard and CrossShard split Messages by whether source and
	// destination nodes are owned by the same shard.
	IntraShard int64 `json:"intra_shard"`
	CrossShard int64 `json:"cross_shard"`
	// Flushes counts inter-shard batch-buffer flushes (one per non-empty
	// source-chunk × destination-shard pair per Deliver).
	Flushes int64 `json:"flushes"`
}

// TransportFactory builds a backend for an n-node network. shards is the
// resolved worker-shard request (>= 1); single-goroutine backends ignore it.
type TransportFactory func(n, shards int) Transport

var (
	transportMu        sync.RWMutex
	transportFactories = map[string]TransportFactory{}
)

// RegisterTransport registers a backend factory under name. It panics on a
// duplicate name — registration is an init-time, programmer-error surface,
// mirroring the engine's strategy registry.
func RegisterTransport(name string, f TransportFactory) {
	transportMu.Lock()
	defer transportMu.Unlock()
	if name == "" || f == nil {
		panic("congest: RegisterTransport needs a name and a factory")
	}
	if _, dup := transportFactories[name]; dup {
		panic(fmt.Sprintf("congest: transport %q registered twice", name))
	}
	transportFactories[name] = f
}

// Transports returns the registered backend names, sorted.
func Transports() []string {
	transportMu.RLock()
	defer transportMu.RUnlock()
	names := make([]string, 0, len(transportFactories))
	for name := range transportFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultTransport is the backend NewNetwork uses when none is requested:
// the single-goroutine reference implementation.
const DefaultTransport = "local"

// TransportSharded is the name of the shard-partitioned multi-goroutine
// backend.
const TransportSharded = "sharded"

// lookupTransport resolves a backend name ("" means DefaultTransport).
func lookupTransport(name string) (string, TransportFactory, error) {
	if name == "" {
		name = DefaultTransport
	}
	transportMu.RLock()
	f, ok := transportFactories[name]
	transportMu.RUnlock()
	if !ok {
		return "", nil, fmt.Errorf("congest: unknown transport %q (have %v)", name, Transports())
	}
	return name, f, nil
}

// ValidTransport reports whether name resolves to a registered backend
// (the empty name counts: it selects the default).
func ValidTransport(name string) bool {
	_, _, err := lookupTransport(name)
	return err == nil
}

// WithTransport selects the delivery backend by registered name. The empty
// string keeps the default ("local"). Unknown names fail NewNetwork.
func WithTransport(name string) Option {
	return func(nw *Network) { nw.transportName = name }
}

// WithTransportShards requests a worker-shard count for backends that
// partition nodes across shards; values <= 0 let the backend pick
// (GOMAXPROCS-bounded). Single-goroutine backends ignore it.
func WithTransportShards(shards int) Option {
	return func(nw *Network) { nw.transportShards = shards }
}

// Transport returns the backend delivering this network's exchanges.
func (nw *Network) Transport() Transport { return nw.transport }

// TransportStats returns the cumulative counters of the network's backend.
func (nw *Network) TransportStats() TransportStats { return nw.transport.Stats() }

// Close releases the network's transport resources. The network must not
// exchange after Close; Close is idempotent.
func (nw *Network) Close() {
	if nw.transport != nil {
		nw.transport.Close()
	}
}
