package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ecsort/internal/core"
)

// The collection API exists once, as operations: the HTTP route table
// (Routes) parses each request into an (Op, Args) pair and runs it
// through an Executor, and the typed Client runs the same pairs for Go
// callers. A single node's executor is the *Service itself; a cluster
// coordinator's forwards each pair to the owning node, whose wire
// handler runs it through the node's *Service. Both answer with the
// same HTTP body bytes, and StatusOf maps both their errors.

// Op is one keyed collection operation.
type Op byte

// The collection operations, with the route each one serves. Their
// values are also the op byte of a cluster wire request.
const (
	OpCreate     Op = iota + 1 // PUT    /v1/collections/{key}
	OpDrop                     // DELETE /v1/collections/{key}
	OpIngest                   // POST   /v1/collections/{key}/items
	OpDelete                   // DELETE /v1/collections/{key}/items/{element}
	OpInvalidate               // POST   /v1/collections/{key}/classes/{class}/invalidate
	OpClasses                  // GET    /v1/collections/{key}/classes
	OpClassOf                  // GET    /v1/collections/{key}/classes/{element}
	OpStats                    // GET    /v1/collections/{key}/stats
	OpResilience               // PATCH  /v1/collections/{key}/resilience
)

// Args carries one operation's arguments; each op reads only its own.
type Args struct {
	// Items is OpIngest's batch.
	Items []int
	// Element is the element of OpDelete and OpClassOf, and the class
	// index of OpInvalidate.
	Element int
	// Flush folds pending items now: after the write on OpIngest and
	// OpInvalidate (?flush=1), before the read on OpClasses and
	// OpClassOf (?fresh=1).
	Flush bool
	// Spec is OpCreate's collection spec.
	Spec *OracleSpec
	// Resilience is OpResilience's new profile.
	Resilience *ResilienceSpec
}

// Executor runs collection operations.
type Executor interface {
	// Do runs op on key's collection and appends the success body — the
	// JSON the HTTP route writes, nothing for OpDrop — to dst. Like
	// append, it returns the extended slice; when dst is empty an
	// executor may return bytes it already holds instead of copying
	// them. Args is passed by value so the call does not heap-allocate
	// it.
	Do(ctx context.Context, dst []byte, op Op, key string, a Args) ([]byte, error)
}

var _ Executor = (*Service)(nil)

// Do runs op against this service. ctx is not consulted: the service's
// methods do not take one yet.
func (s *Service) Do(_ context.Context, dst []byte, op Op, key string, a Args) ([]byte, error) {
	switch op {
	case OpCreate:
		if a.Spec == nil {
			return nil, fmt.Errorf("%w: create without a spec", ErrBadSpec)
		}
		if err := s.CreateCollection(key, *a.Spec); err != nil {
			return nil, err
		}
		_, name, _ := a.Spec.algorithm() // validated by CreateCollection
		return AppendJSON(dst, map[string]any{
			"key":       key,
			"kind":      a.Spec.Kind,
			"universe":  a.Spec.N(),
			"algorithm": name,
		}), nil
	case OpDrop:
		if err := s.DropCollection(key); err != nil {
			return nil, err
		}
		return dst, nil
	case OpIngest:
		res, err := s.Ingest(key, a.Items, a.Flush)
		return appendOK(dst, res, err)
	case OpDelete:
		res, err := s.DeleteItem(key, a.Element)
		return appendOK(dst, res, err)
	case OpInvalidate:
		res, err := s.InvalidateClass(key, a.Element, a.Flush)
		return appendOK(dst, res, err)
	case OpClasses:
		snap, err := s.Classes(key, a.Flush)
		if err != nil {
			return nil, err
		}
		return appendSnapshot(dst, snap), nil
	case OpClassOf:
		view, err := s.ClassOf(key, a.Element, a.Flush)
		if err != nil {
			return nil, err
		}
		return appendClassView(dst, &view), nil
	case OpStats:
		info, err := s.CollectionStats(key)
		return appendOK(dst, info, err)
	case OpResilience:
		if a.Resilience == nil {
			return nil, fmt.Errorf("%w: resilience update without a profile", ErrBadSpec)
		}
		if err := s.UpdateResilience(key, *a.Resilience); err != nil {
			return nil, err
		}
		return AppendJSON(dst, map[string]any{"key": key, "resilience": *a.Resilience}), nil
	}
	return nil, BadRequest(fmt.Errorf("service: unknown op %d", op))
}

// appendOK appends v's body to dst, or returns err.
func appendOK(dst []byte, v any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return AppendJSON(dst, v), nil
}

// StatusOf maps an executor's error to its HTTP status — the one table
// the HTTP routes and a cluster node's wire replies share — and, for a
// degraded rejection, how long the client should wait before retrying
// (0 otherwise). An error that carries its own status (HTTPStatus() int:
// an unparsable request, a failure relayed from a cluster node) keeps
// it.
func StatusOf(err error) (status int, retryAfter time.Duration) {
	var de *DegradedError
	if errors.As(err, &de) {
		return http.StatusServiceUnavailable, de.RetryAfter
	}
	var hs interface{ HTTPStatus() int }
	if errors.As(err, &hs) {
		return hs.HTTPStatus(), 0
	}
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, 0
	case errors.Is(err, ErrExists):
		return http.StatusConflict, 0
	case errors.Is(err, ErrBadItem), errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, 0
	case errors.Is(err, core.ErrConstRoundFailed), errors.Is(err, core.ErrAdaptiveExhausted):
		// A const-round fold failed its λ promise on the collection's
		// current sub-universe — a documented, retryable regimen outcome
		// (the buffered items survive; a later fold may succeed as data
		// arrives), not a server bug.
		return http.StatusConflict, 0
	case errors.Is(err, ErrClosed), errors.Is(err, context.Canceled):
		// context.Canceled surfaces from folds aborted by Close, and from
		// a cluster call whose client went away mid-call.
		return http.StatusServiceUnavailable, 0
	}
	return http.StatusInternalServerError, 0
}

// BadRequest marks err as a request that could not be parsed — a
// malformed body or path, an undecodable wire payload — keeping its
// text. StatusOf maps it to 400.
func BadRequest(err error) error { return badRequest{err} }

type badRequest struct{ error }

func (badRequest) HTTPStatus() int { return http.StatusBadRequest }

// Client is the typed Go API over any Executor: each method runs one
// operation and decodes its JSON body. Over a *Service it is the
// single-node API; over a cluster coordinator, the cluster's.
type Client struct{ ex Executor }

// NewClient returns a Client running its operations through ex.
func NewClient(ex Executor) Client { return Client{ex} }

// doAs runs one operation and decodes its body into a T.
func doAs[T any](ctx context.Context, ex Executor, op Op, key string, a Args) (T, error) {
	var v T
	body, err := ex.Do(ctx, nil, op, key, a)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(body, &v)
}

// CreateCollection creates key with spec. The returned info carries the
// collection's identity — key, kind, universe, algorithm — and no
// counters.
func (c Client) CreateCollection(ctx context.Context, key string, spec OracleSpec) (CollectionInfo, error) {
	return doAs[CollectionInfo](ctx, c.ex, OpCreate, key, Args{Spec: &spec})
}

// DropCollection drops key.
func (c Client) DropCollection(ctx context.Context, key string) error {
	_, err := c.ex.Do(ctx, nil, OpDrop, key, Args{})
	return err
}

// Ingest adds a batch to key, folding it at once when flush is set.
func (c Client) Ingest(ctx context.Context, key string, items []int, flush bool) (IngestResult, error) {
	return doAs[IngestResult](ctx, c.ex, OpIngest, key, Args{Items: items, Flush: flush})
}

// DeleteItem removes one element from key.
func (c Client) DeleteItem(ctx context.Context, key string, element int) (ChurnResult, error) {
	return doAs[ChurnResult](ctx, c.ex, OpDelete, key, Args{Element: element})
}

// InvalidateClass withdraws one of key's classes for re-verification,
// re-folding at once when flush is set.
func (c Client) InvalidateClass(ctx context.Context, key string, class int, flush bool) (ChurnResult, error) {
	return doAs[ChurnResult](ctx, c.ex, OpInvalidate, key, Args{Element: class, Flush: flush})
}

// Classes returns key's current partition, flushing first when fresh
// is set.
func (c Client) Classes(ctx context.Context, key string, fresh bool) (*Snapshot, error) {
	return doAs[*Snapshot](ctx, c.ex, OpClasses, key, Args{Flush: fresh})
}

// ClassOf returns one element's class in key, flushing first when fresh
// is set.
func (c Client) ClassOf(ctx context.Context, key string, element int, fresh bool) (ClassView, error) {
	return doAs[ClassView](ctx, c.ex, OpClassOf, key, Args{Element: element, Flush: fresh})
}

// Stats returns key's counters and snapshot.
func (c Client) Stats(ctx context.Context, key string) (CollectionInfo, error) {
	return doAs[CollectionInfo](ctx, c.ex, OpStats, key, Args{})
}

// UpdateResilience retunes key's resilience profile.
func (c Client) UpdateResilience(ctx context.Context, key string, rs ResilienceSpec) error {
	_, err := c.ex.Do(ctx, nil, OpResilience, key, Args{Resilience: &rs})
	return err
}
