package client

// Wire types of the ivmd HTTP/JSON protocol (internal/server renders
// them, this package decodes them — both sides of the wire share one
// definition). Tuples travel as the engine's surface syntax, one string
// per value (`"a"`, `"42"`, `"5.0"`, `"\"not an ident\""`), exactly
// what Value.String renders and the Datalog parser reparses — so a
// client can echo values back into delta scripts and goals verbatim.

// Row is a stored or delta row: the tuple's rendered values plus its
// signed derivation count.
type Row struct {
	Tuple []string `json:"tuple"`
	Count int64    `json:"count"`
}

// Delta is one predicate's changes within a committed batch (deleted
// counts are reported positive, mirroring ivm.ChangeSet).
type Delta struct {
	Pred     string `json:"pred"`
	Inserted []Row  `json:"inserted,omitempty"`
	Deleted  []Row  `json:"deleted,omitempty"`
}

// Event is one line of the subscription stream: a committed maintenance
// batch, stamped with the version it published. The first event of a
// stream is a hello carrying the current version and no deltas; a final
// event with Evicted set reports that the server dropped this consumer
// for falling behind its buffer. A final event with Resync set answers
// a ?from= resume whose commits have aged out of the server's history
// (ivmd -history): the stream has an unbridgeable gap, so re-read
// current state and subscribe afresh.
type Event struct {
	Version uint64  `json:"version"`
	Deltas  []Delta `json:"deltas,omitempty"`
	Hello   bool    `json:"hello,omitempty"`
	Evicted bool    `json:"evicted,omitempty"`
	Resync  bool    `json:"resync,omitempty"`
}

// ApplyResult acknowledges a durably applied update: the version in
// which its effects became visible. For store-bound servers the WAL
// record is fsynced before this result is sent — an acked apply survives
// any crash or shutdown. Deduped reports that the request's
// Idempotency-Key had already committed: nothing was applied again, and
// Version is the version the original apply published. The rows an
// apply changed are the event stamped Version of a subscription resumed
// after Version−1 (GET /v1/subscribe?from=Version−1).
type ApplyResult struct {
	Version uint64 `json:"version"`
	Deduped bool   `json:"deduped,omitempty"`
}

// QueryResult is one match of a query goal.
type QueryResult struct {
	Tuple    []string          `json:"tuple"`
	Count    int64             `json:"count"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

// QueryResponse is the result of /v1/query: the matches plus the
// version they were evaluated at.
type QueryResponse struct {
	Version uint64        `json:"version"`
	Results []QueryResult `json:"results"`
}

// RowsResponse is the result of /v1/rows.
type RowsResponse struct {
	Version uint64 `json:"version"`
	Pred    string `json:"pred"`
	Rows    []Row  `json:"rows"`
}

// CountResponse is the result of /v1/count and /v1/has.
type CountResponse struct {
	Version uint64 `json:"version"`
	Count   int64  `json:"count"`
	Has     bool   `json:"has"`
}

// Subgoal is one instantiated body literal of a derivation.
type Subgoal struct {
	Pred      string   `json:"pred"`
	Tuple     []string `json:"tuple"`
	Negated   bool     `json:"negated,omitempty"`
	Aggregate bool     `json:"aggregate,omitempty"`
	Count     int64    `json:"count"`
}

// Derivation is one way a view tuple is derived.
type Derivation struct {
	Rule      string    `json:"rule"`
	RuleIndex int       `json:"rule_index"`
	Subgoals  []Subgoal `json:"subgoals"`
}

// ExplainResponse is the result of /v1/explain.
type ExplainResponse struct {
	Version     uint64       `json:"version"`
	Derivations []Derivation `json:"derivations"`
}

// SessionInfo describes a snapshot-pinned repeatable-read session: every
// read issued with this session id observes exactly Version, no matter
// how many updates commit afterwards. Sessions expire after the
// server's TTL of inactivity (each read refreshes the clock).
type SessionInfo struct {
	ID          string `json:"id"`
	Version     uint64 `json:"version"`
	ExpiresUnix int64  `json:"expires_unix"`
}

// Info describes the served views and the node's place in the cluster:
// Role is "primary" or "follower", Epoch is the fencing epoch the node
// operates under (increments on every promotion), and LeaderURL names
// the primary as the node knows it (empty on a primary). Clients use
// these fields for leader discovery — see ReadPool's cluster
// constructor.
type Info struct {
	Strategy  string   `json:"strategy"`
	Semantics string   `json:"semantics"`
	Rules     int      `json:"rules"`
	Version   uint64   `json:"version"`
	StoreDir  string   `json:"store_dir,omitempty"`
	Preds     []string `json:"preds"`
	Role      string   `json:"role,omitempty"`
	Epoch     uint64   `json:"epoch,omitempty"`
	LeaderURL string   `json:"leader_url,omitempty"`
}

// PromoteResult acknowledges POST /v1/promote. Promoted is false when
// the node was already a primary (the call is idempotent); Epoch is the
// fencing epoch the node now leads (or already led) at.
type PromoteResult struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Promoted bool   `json:"promoted"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}
