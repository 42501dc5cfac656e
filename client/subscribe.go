package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Subscription is a live feed of detection-change notifications
// (GET /v1/subscribe, Server-Sent Events): bursty-region changes on Events,
// top-k changes on TopKEvents. Read the channels until they close, then
// consult Err; Close cancels the stream.
type Subscription struct {
	resumed bool
	events  chan Notification
	topk    chan TopKNotification
	lastEID atomic.Uint64
	epoch   atomic.Uint64 // server stream epoch from event ids ("epoch.eid")
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	hello    State
	resynced bool // a resume was answered with a fresh hello (server restarted)
	err      error
	done     chan struct{}
}

// Subscribe opens the notification stream. It returns once the server's
// initial "hello" event has been received — from that point on, every
// change to the bursty region and to the top-k answer is delivered or accounted for in a Dropped
// count if this subscriber falls behind the server's per-subscriber buffer.
func (c *Client) Subscribe(ctx context.Context) (*Subscription, error) {
	return c.SubscribeFrom(ctx, 0)
}

// SubscribeFrom resumes the notification stream after a disconnect:
// lastEventID is the event id of the last notification this subscriber saw
// (Subscription.LastEventID of the broken subscription, or the hello's
// State.Events). The server replays the missed events from its bounded
// notification ring with their original ids instead of restarting the
// stream; events that have already left the ring are counted in the first
// replayed event's Dropped field, so the loss accounting stays exact across
// reconnects. No hello event is sent on resume — Hello returns the zero
// State and Resumed reports true.
//
// SubscribeFrom(ctx, 0) is Subscribe.
//
// A bare event id can only resume within one server process. To survive a
// server restart, resume with SubscribeFromCursor and the Cursor of the
// broken subscription instead.
func (c *Client) SubscribeFrom(ctx context.Context, lastEventID uint64) (*Subscription, error) {
	var cursor string
	if lastEventID > 0 {
		cursor = strconv.FormatUint(lastEventID, 10)
	}
	return c.subscribe(ctx, "/v1/subscribe", cursor)
}

// SubscribeFromCursor resumes the notification stream from a Cursor taken
// off a previous subscription ("epoch.eid"). Unlike a bare event id, the
// cursor identifies the server process it came from: if the server has
// restarted since (its replay ring is gone and its event ids restarted),
// the server answers with a fresh hello instead of a bogus replay — the
// subscription then reports Resynced true and Hello carries the new state,
// so the caller knows to rebuild its view rather than patch it.
//
// An empty cursor is Subscribe.
func (c *Client) SubscribeFromCursor(ctx context.Context, cursor string) (*Subscription, error) {
	if cursor != "" {
		if _, _, err := parseCursor(cursor); err != nil {
			return nil, err
		}
	}
	return c.subscribe(ctx, "/v1/subscribe", cursor)
}

// parseCursor splits a subscription cursor: "epoch.eid" or a bare "eid"
// (epoch 0).
func parseCursor(cursor string) (epoch, eid uint64, err error) {
	s := cursor
	if e, n, found := strings.Cut(cursor, "."); found {
		epoch, err = strconv.ParseUint(e, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("client: invalid subscription cursor %q", cursor)
		}
		s = n
	}
	eid, err = strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("client: invalid subscription cursor %q", cursor)
	}
	return epoch, eid, nil
}

// subscribe opens the SSE stream at path — "/v1/subscribe" for the default
// query, "/v1/queries/{id}/subscribe" for a query-scoped feed.
func (c *Client) subscribe(ctx context.Context, path, cursor string) (*Subscription, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resume := cursor != ""
	if resume {
		req.Header.Set("Last-Event-ID", cursor)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		cancel()
		return nil, decodeError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("client: subscribe: unexpected content type %q", ct)
	}

	sub := &Subscription{
		resumed: resume,
		events:  make(chan Notification, 256),
		topk:    make(chan TopKNotification, 256),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if resume {
		epoch, eid, _ := parseCursor(cursor) // validated by the callers
		sub.epoch.Store(epoch)
		sub.lastEID.Store(eid)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)

	if !resume {
		// The hello event arrives synchronously so the caller knows the
		// subscription is registered before it triggers any changes.
		event, id, data, err := nextEvent(sc)
		if err != nil {
			resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("client: subscribe: reading hello: %w", err)
		}
		if event != "hello" {
			resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("client: subscribe: first event %q, want hello", event)
		}
		if err := json.Unmarshal([]byte(data), &sub.hello); err != nil {
			resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("client: subscribe: decoding hello: %w", err)
		}
		sub.trackEID(id)
	}

	go sub.run(resp.Body, sc)
	return sub, nil
}

// Hello returns the server state at subscription time. A resumed
// subscription receives no hello and reports the zero State — unless the
// server could not honour the resume (see Resynced), in which case Hello
// returns the fresh state the server resynchronised with.
func (s *Subscription) Hello() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hello
}

// Resumed reports whether the subscription was opened with SubscribeFrom or
// SubscribeFromCursor and therefore expects no hello event.
func (s *Subscription) Resumed() bool { return s.resumed }

// Resynced reports that a resumed subscription was answered with a fresh
// hello instead of a replay: the cursor's server process is gone (restart,
// failover), so no missed events could be recovered. The caller should
// treat Hello as a new baseline and rebuild any derived state.
func (s *Subscription) Resynced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resynced
}

// Cursor returns the resume cursor of the most recently decoded event:
// "epoch.eid", or a bare event id when the server predates stream epochs,
// or "" before any event has carried an id. Pass it to SubscribeFromCursor
// to resume after a disconnect — including across server restarts.
func (s *Subscription) Cursor() string {
	eid := s.lastEID.Load()
	if eid == 0 {
		return ""
	}
	if epoch := s.epoch.Load(); epoch != 0 {
		return strconv.FormatUint(epoch, 10) + "." + strconv.FormatUint(eid, 10)
	}
	return strconv.FormatUint(eid, 10)
}

// LastEventID returns the event id of the most recently decoded
// notification. The reader goroutine runs ahead of the consumer's channel
// reads, so to resume exactly after the last notification you processed,
// pass that notification's EventID to SubscribeFrom instead; LastEventID
// is the right cursor once the channels have been drained.
func (s *Subscription) LastEventID() uint64 { return s.lastEID.Load() }

// Events returns the bursty-region notification channel. It is closed when
// the stream ends; check Err afterwards.
func (s *Subscription) Events() <-chan Notification { return s.events }

// TopKEvents returns the top-k notification channel. Every notification is a complete snapshot of
// the answer, so the channel keeps only the freshest ones: when a slow
// consumer fills it, the oldest buffered notification is replaced (the loss
// shows up in the next notification's Dropped accounting together with any
// server-side drops). The channel is closed when the stream ends.
func (s *Subscription) TopKEvents() <-chan TopKNotification { return s.topk }

// Err returns the terminal stream error, if any, once Events is closed.
// A subscription ended by Close (or its context) reports nil.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close cancels the subscription and waits for the reader to finish.
func (s *Subscription) Close() error {
	s.cancel()
	<-s.done
	return nil
}

func (s *Subscription) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// trackEID records the position carried by an SSE id field — "epoch.eid"
// from epoch-aware servers, a bare event id from older ones — and returns
// the event id for the notification's EventID field.
func (s *Subscription) trackEID(id string) uint64 {
	if id == "" {
		return 0
	}
	num := id
	if e, n, found := strings.Cut(id, "."); found {
		epoch, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			return 0
		}
		s.epoch.Store(epoch)
		num = n
	}
	v, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0
	}
	s.lastEID.Store(v)
	return v
}

func (s *Subscription) run(body io.ReadCloser, sc *bufio.Scanner) {
	defer close(s.done)
	defer close(s.events)
	defer close(s.topk)
	defer body.Close()
	for {
		event, id, data, err := nextEvent(sc)
		if err != nil {
			// Cancellation surfaces as a read error on the body; report
			// only errors the caller didn't cause.
			if err != io.EOF && !isCanceled(err) {
				s.fail(err)
			}
			return
		}
		switch event {
		case "burst":
			var n Notification
			if err := json.Unmarshal([]byte(data), &n); err != nil {
				s.fail(fmt.Errorf("client: subscribe: decoding notification: %w", err))
				return
			}
			n.EventID = s.trackEID(id)
			// The send must stay cancellable: a consumer that stopped
			// reading would otherwise pin this goroutine (and Close) on a
			// full buffer.
			select {
			case s.events <- n:
			case <-s.ctx.Done():
				return
			}
		case "topk":
			var n TopKNotification
			if err := json.Unmarshal([]byte(data), &n); err != nil {
				s.fail(fmt.Errorf("client: subscribe: decoding top-k notification: %w", err))
				return
			}
			n.EventID = s.trackEID(id)
			// Latest-wins: each notification is a full snapshot, so a slow
			// consumer is served best by replacing the oldest buffered one.
			// The evicted notification's loss account (plus itself) is
			// folded into the one being delivered, so "delivered + sum of
			// Dropped = published" holds across client-side drops too.
			for {
				select {
				case s.topk <- n:
				case <-s.ctx.Done():
					return
				default:
					select {
					case old := <-s.topk:
						n.Dropped += old.Dropped + 1
					default:
					}
					continue
				}
				break
			}
		case "hello":
			// A hello on a resumed stream means the server declined the
			// resume (foreign epoch: the process restarted) and opened a
			// fresh subscription instead. Record the resynchronised state
			// so the consumer can rebuild from it.
			var st State
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				s.fail(fmt.Errorf("client: subscribe: decoding hello: %w", err))
				return
			}
			s.mu.Lock()
			s.hello = st
			s.resynced = true
			s.mu.Unlock()
			s.trackEID(id)
		default:
			// future event types are skippable by design
		}
	}
}

func isCanceled(err error) bool {
	return strings.Contains(err.Error(), "context canceled") ||
		strings.Contains(err.Error(), "use of closed network connection")
}

// nextEvent reads one SSE event: "event:"/"id:"/"data:" field lines
// terminated by a blank line. Comment lines (leading ':') are keep-alives
// and are skipped. Returns io.EOF at end of stream.
func nextEvent(sc *bufio.Scanner) (event, id, data string, err error) {
	var dataLines []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || len(dataLines) > 0 {
				return event, id, strings.Join(dataLines, "\n"), nil
			}
		case strings.HasPrefix(line, ":"):
			// keep-alive comment
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "data:"):
			dataLines = append(dataLines, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// unknown fields are ignored
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", "", err
	}
	return "", "", "", io.EOF
}
