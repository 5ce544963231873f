package scribe

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rbay/internal/metrics"
	"rbay/internal/pastry"
)

// TestAwaitedRepliesInTimeTimeoutLate drives Scribe's two request/reply
// calls through pastry's shared table three ways: the reply beats the
// timeout; the timeout wins (its counter moves, the caller sees
// ErrTimeout); and the reply then arrives late and is dropped without a
// second callback.
func TestAwaitedRepliesInTimeTimeoutLate(t *testing.T) {
	calls := []struct {
		name    string
		counter string
		// issue starts the call and reports each callback's error.
		issue func(s *Scribe, done func(error)) error
	}{
		{"anycast", "scribe_anycast_timeouts_total", func(s *Scribe, done func(error)) error {
			topic := TopicID(pastry.GlobalScope, "GPU")
			return s.Anycast(pastry.GlobalScope, topic, 0, func(r AnycastResult) { done(r.Err) })
		}},
		{"aggregate query", "scribe_aggquery_timeouts_total", func(s *Scribe, done func(error)) error {
			topic := TopicID(pastry.GlobalScope, "GPU")
			return s.QueryAggregate(pastry.GlobalScope, topic, func(_ any, err error) { done(err) })
		}},
	}
	for _, call := range calls {
		for _, timeout := range []time.Duration{time.Second, time.Millisecond} {
			inTime := timeout == time.Second
			name := call.name + "/timeout then late"
			if inTime {
				name = call.name + "/in time"
			}
			t.Run(name, func(t *testing.T) {
				reg := metrics.NewRegistry()
				// One hop costs 1 ms, so a 1 ms timeout loses to any remote
				// reply and a 1 s timeout beats all of them.
				c := newCluster(t, 30, []string{"alpha"}, Config{
					AggregateInterval: 200 * time.Millisecond,
					AnycastTimeout:    timeout,
					AggQueryTimeout:   timeout,
					Metrics:           reg,
				})
				c.subscribeSome(t, pastry.GlobalScope, TopicID(pastry.GlobalScope, "GPU"), 5)
				c.net.RunFor(3 * time.Second)

				// Tap the wire for the reply itself, so the late leg is known
				// to have reached the requester rather than assumed to.
				replies := 0
				c.net.SetTranscode(func(msg any) (any, error) {
					if env := reflect.ValueOf(msg); env.Kind() == reflect.Struct && env.FieldByName("Payload").IsValid() {
						switch env.FieldByName("Payload").Interface().(type) {
						case anycastDone, aggReplyMsg:
							replies++
						}
					}
					return msg, nil
				})

				var errs []error
				requester := c.scribes[len(c.scribes)-1]
				if err := call.issue(requester, func(err error) { errs = append(errs, err) }); err != nil {
					t.Fatal(err)
				}
				c.net.RunFor(2 * time.Second) // past the timeout and the late reply
				if len(errs) != 1 || replies != 1 {
					t.Fatalf("callback fired %d times for %d replies, want 1 and 1", len(errs), replies)
				}
				timeouts := reg.Counter(call.counter)
				if inTime {
					if errs[0] != nil || timeouts != 0 {
						t.Fatalf("err = %v, %s = %d; want a reply in time", errs[0], call.counter, timeouts)
					}
				} else if !errors.Is(errs[0], ErrTimeout) || timeouts != 1 {
					t.Fatalf("err = %v, %s = %d; want one timeout", errs[0], call.counter, timeouts)
				}
				if m := reg.Counter("pastry_reply_mismatch_total"); m != 0 {
					t.Errorf("pastry_reply_mismatch_total = %d", m)
				}
			})
		}
	}
}
