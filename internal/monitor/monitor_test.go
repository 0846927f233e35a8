package monitor

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAssignsSequence(t *testing.T) {
	s := NewStore(0)
	e1 := s.Record(Event{Type: EventUserJoin, User: "02:00:00:00:00:01"})
	e2 := s.Record(Event{Type: EventUserLeave, User: "02:00:00:00:00:01"})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs = %d, %d", e1.Seq, e2.Seq)
	}
	if s.TotalRecorded() != 2 || s.Len() != 2 {
		t.Fatalf("totals: %d %d", s.TotalRecorded(), s.Len())
	}
}

func TestCapacityEviction(t *testing.T) {
	s := NewStore(10)
	for i := 0; i < 25; i++ {
		s.Record(Event{Type: EventFlowStart, At: time.Duration(i) * time.Millisecond})
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if s.TotalRecorded() != 25 {
		t.Fatalf("TotalRecorded = %d", s.TotalRecorded())
	}
	evs := s.Events(Filter{})
	if evs[0].Seq != 16 || evs[len(evs)-1].Seq != 25 {
		t.Fatalf("retained range %d..%d", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

// TestRingWrap drives a capacity-4 store past several wraps: it must
// keep exactly the last four events in Seq order while the lifetime
// counters keep counting everything recorded.
func TestRingWrap(t *testing.T) {
	for _, tc := range []struct {
		records int
		wantLen int
		first   uint64
	}{
		{records: 0, wantLen: 0},
		{records: 3, wantLen: 3, first: 1},
		{records: 4, wantLen: 4, first: 1},
		{records: 5, wantLen: 4, first: 2},
		{records: 8, wantLen: 4, first: 5},
		{records: 10, wantLen: 4, first: 7},
	} {
		s := NewStore(4)
		for i := 0; i < tc.records; i++ {
			typ := EventFlowStart
			if i%2 == 1 {
				typ = EventAttack
			}
			s.Record(Event{Type: typ, At: time.Duration(i) * time.Millisecond})
		}
		if s.Len() != tc.wantLen {
			t.Fatalf("%d records: Len = %d, want %d", tc.records, s.Len(), tc.wantLen)
		}
		if s.TotalRecorded() != uint64(tc.records) {
			t.Fatalf("%d records: TotalRecorded = %d", tc.records, s.TotalRecorded())
		}
		starts, attacks := s.Count(EventFlowStart), s.Count(EventAttack)
		if starts != uint64((tc.records+1)/2) || attacks != uint64(tc.records/2) {
			t.Fatalf("%d records: Count = %d starts, %d attacks", tc.records, starts, attacks)
		}
		evs := s.Events(Filter{})
		if len(evs) != tc.wantLen {
			t.Fatalf("%d records: Events returned %d", tc.records, len(evs))
		}
		for i, ev := range evs {
			if want := tc.first + uint64(i); ev.Seq != want {
				t.Fatalf("%d records: Events[%d].Seq = %d, want %d", tc.records, i, ev.Seq, want)
			}
		}
		var replayed []uint64
		s.Replay(0, 0, func(ev Event) bool { replayed = append(replayed, ev.Seq); return true })
		if len(replayed) != tc.wantLen || (tc.wantLen > 0 && replayed[0] != tc.first) {
			t.Fatalf("%d records: Replay visited %v", tc.records, replayed)
		}
		if got := s.Events(Filter{Limit: 2}); tc.wantLen >= 2 && (len(got) != 2 || got[1].Seq != tc.first+1) {
			t.Fatalf("%d records: limited Events = %+v", tc.records, got)
		}
	}
}

// TestRecordFullStoreZeroAllocs pins the ring's point: once the store is
// full, recording an event without a flow key copies nothing and
// allocates nothing.
func TestRecordFullStoreZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	s := NewStore(64)
	ev := Event{Type: EventLoadReport, SE: 7, Detail: "load"}
	for i := 0; i < 100; i++ {
		s.Record(ev)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Record(ev) }); allocs != 0 {
		t.Fatalf("Record on a full store allocs/run = %v, want 0", allocs)
	}
	if s.Len() != 64 {
		t.Fatalf("Len = %d, want 64", s.Len())
	}
}

func TestFilters(t *testing.T) {
	s := NewStore(0)
	s.Record(Event{Type: EventAttack, User: "u1", At: 10 * time.Millisecond})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http", At: 20 * time.Millisecond})
	s.Record(Event{Type: EventAttack, User: "u2", At: 30 * time.Millisecond})
	if got := s.Events(Filter{Type: EventAttack}); len(got) != 2 {
		t.Fatalf("type filter: %d", len(got))
	}
	if got := s.Events(Filter{User: "u1"}); len(got) != 2 {
		t.Fatalf("user filter: %d", len(got))
	}
	if got := s.Events(Filter{Since: 2}); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("since filter: %+v", got)
	}
	if got := s.Events(Filter{From: 15 * time.Millisecond, To: 25 * time.Millisecond}); len(got) != 1 {
		t.Fatalf("window filter: %d", len(got))
	}
	if got := s.Events(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit filter: %d", len(got))
	}
}

func TestReplayWindowOrdered(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 10; i++ {
		s.Record(Event{Type: EventFlowStart, At: time.Duration(i) * time.Second})
	}
	var seen []time.Duration
	s.Replay(2*time.Second, 5*time.Second, func(ev Event) bool {
		seen = append(seen, ev.At)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("replayed %d events, want 4", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatal("replay out of order")
		}
	}
	// Early stop.
	n := 0
	s.Replay(0, 0, func(Event) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop replayed %d", n)
	}
}

func TestSubscribe(t *testing.T) {
	s := NewStore(0)
	var got []Event
	s.Subscribe(func(ev Event) { got = append(got, ev) })
	s.Record(Event{Type: EventAttack})
	if len(got) != 1 || got[0].Type != EventAttack {
		t.Fatalf("subscriber got %+v", got)
	}
}

func TestUserAppsAggregation(t *testing.T) {
	s := NewStore(0)
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http"})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http"})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "ssh"})
	s.Record(Event{Type: EventProtocol, User: "u2", Detail: "bittorrent"})
	apps := s.UserApps()
	if apps["u1"]["http"] != 2 || apps["u1"]["ssh"] != 1 || apps["u2"]["bittorrent"] != 1 {
		t.Fatalf("apps = %+v", apps)
	}
	// Returned map is a copy.
	apps["u1"]["http"] = 99
	if s.UserApps()["u1"]["http"] != 2 {
		t.Fatal("UserApps leaked internal state")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Record(Event{Type: EventFlowStart})
				_ = s.Events(Filter{Limit: 5})
				_ = s.Counts()
			}
		}()
	}
	wg.Wait()
	if s.TotalRecorded() != 2000 {
		t.Fatalf("TotalRecorded = %d", s.TotalRecorded())
	}
}

func TestHTTPAPI(t *testing.T) {
	s := NewStore(0)
	s.Record(Event{Type: EventAttack, User: "u1", Detail: "SQLi", At: 5 * time.Millisecond, Severity: 180})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http", At: 6 * time.Millisecond})
	h := NewHandler(s, func() any { return map[string]int{"switches": 3} })
	srv := httptest.NewServer(h)
	defer srv.Close()

	getJSON := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var events []Event
	getJSON("/events?type=attack", &events)
	if len(events) != 1 || events[0].Detail != "SQLi" {
		t.Fatalf("events = %+v", events)
	}
	var replay []Event
	getJSON("/replay?from_ms=0&to_ms=100", &replay)
	if len(replay) != 2 {
		t.Fatalf("replay = %+v", replay)
	}
	var stats map[string]uint64
	getJSON("/stats", &stats)
	if stats["attack"] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	var apps map[string]map[string]uint64
	getJSON("/apps", &apps)
	if apps["u1"]["http"] != 1 {
		t.Fatalf("apps = %+v", apps)
	}
	var topo map[string]int
	getJSON("/topology", &topo)
	if topo["switches"] != 3 {
		t.Fatalf("topo = %+v", topo)
	}
	// Bad query params are rejected.
	resp, err := http.Get(srv.URL + "/events?since=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status %d", resp.StatusCode)
	}
}

func TestIndexPageServed(t *testing.T) {
	s := NewStore(0)
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body := make([]byte, 1024)
	n, _ := resp.Body.Read(body)
	if n == 0 || !strings.Contains(string(body[:n]), "LiveSec") {
		t.Fatal("dashboard body missing")
	}
	// Unknown paths are not swallowed by the index route.
	resp2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == 200 {
		t.Fatal("unknown path served the index")
	}
}

// TestRecordFullStoreWritesOneSlot is the O(1) half of the ring
// contract: on a full store, Record overwrites the single oldest slot
// and moves no other retained event.
func TestRecordFullStoreWritesOneSlot(t *testing.T) {
	s := NewStore(8)
	for i := 0; i < 13; i++ {
		s.Record(Event{Type: EventFlowStart})
	}
	before := append([]Event(nil), s.events...)
	s.Record(Event{Type: EventFlowStart})
	changed := 0
	for i := range before {
		if s.events[i] != before[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("Record on a full store rewrote %d slots, want 1", changed)
	}
}

// BenchmarkStoreRecordFull records into a full default-capacity store:
// the steady state of a long-running controller.
func BenchmarkStoreRecordFull(b *testing.B) {
	s := NewStore(0)
	ev := Event{Type: EventLoadReport, SE: 7}
	for i := 0; i < 65536; i++ {
		s.Record(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(ev)
	}
}
