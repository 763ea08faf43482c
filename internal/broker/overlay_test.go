package broker

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// netListen binds an ephemeral localhost listener for overlay tests.
func netListen(t *testing.T) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

const sampleOverlay = `{
  "brokers": [
    {"id": 0, "addr": "a:7000"},
    {"id": 1, "addr": "b:7000"},
    {"id": 2, "addr": "c:7000"}
  ],
  "links": [[0,1],[1,2]],
  "m": 2,
  "default_deadline_ms": 500
}`

func TestParseOverlay(t *testing.T) {
	oc, err := ParseOverlay([]byte(sampleOverlay))
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.Brokers) != 3 || len(oc.Links) != 2 {
		t.Fatalf("overlay = %+v", oc)
	}
	cfg, err := oc.BrokerConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "b:7000" || cfg.M != 2 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.DefaultDeadline != 500*time.Millisecond {
		t.Errorf("deadline = %v", cfg.DefaultDeadline)
	}
	if len(cfg.Neighbors) != 2 || cfg.Neighbors[0] != "a:7000" || cfg.Neighbors[2] != "c:7000" {
		t.Errorf("neighbors = %v", cfg.Neighbors)
	}
	// Edge brokers get one neighbor.
	cfg0, err := oc.BrokerConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg0.Neighbors) != 1 || cfg0.Neighbors[1] != "b:7000" {
		t.Errorf("broker 0 neighbors = %v", cfg0.Neighbors)
	}
}

func TestParseOverlayErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"no brokers":     `{"brokers": [], "links": []}`,
		"negative id":    `{"brokers": [{"id": -1, "addr": "x"}]}`,
		"missing addr":   `{"brokers": [{"id": 0}]}`,
		"duplicate id":   `{"brokers": [{"id": 0, "addr": "x"}, {"id": 0, "addr": "y"}]}`,
		"self link":      `{"brokers": [{"id": 0, "addr": "x"}], "links": [[0,0]]}`,
		"dangling link":  `{"brokers": [{"id": 0, "addr": "x"}], "links": [[0,9]]}`,
		"negative m":     `{"brokers": [{"id": 0, "addr": "x"}], "m": -1}`,
		"negative delay": `{"brokers": [{"id": 0, "addr": "x"}], "default_deadline_ms": -5}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseOverlay([]byte(doc)); err == nil {
				t.Errorf("overlay %q accepted", doc)
			}
		})
	}
}

func TestBrokerConfigUnknownID(t *testing.T) {
	oc, err := ParseOverlay([]byte(sampleOverlay))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oc.BrokerConfig(42); err == nil {
		t.Error("unknown broker ID accepted")
	}
	if _, ok := oc.Addr(42); ok {
		t.Error("Addr(42) reported ok")
	}
}

func TestLoadOverlayFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(path, []byte(sampleOverlay), 0o644); err != nil {
		t.Fatal(err)
	}
	oc, err := LoadOverlay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.Brokers) != 3 {
		t.Errorf("brokers = %d", len(oc.Brokers))
	}
	if _, err := LoadOverlay(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOverlayEndToEnd(t *testing.T) {
	// Boot a real 2-broker overlay from a config document (with port-0
	// addresses resolved first).
	lnA, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	doc := `{
	  "brokers": [
	    {"id": 0, "addr": "` + lnA.Addr().String() + `"},
	    {"id": 1, "addr": "` + lnB.Addr().String() + `"}
	  ],
	  "links": [[0,1]]
	}`
	oc, err := ParseOverlay([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg0, err := oc.BrokerConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg0.DialRetry = 20 * time.Millisecond
	b0, err := New(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b0.StartListener(lnA); err != nil {
		t.Fatal(err)
	}
	defer b0.Close()

	cfg1, err := oc.BrokerConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg1.DialRetry = 20 * time.Millisecond
	b1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.StartListener(lnB); err != nil {
		t.Fatal(err)
	}
	defer b1.Close()

	sub, err := Dial(lnB.Addr().String(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(1, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route", func() bool {
		return len(ctrlList(b0, 1, 1)) > 0
	})
	pub, err := Dial(lnA.Addr().String(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(1, time.Second, []byte("via config")); err != nil {
		t.Fatal(err)
	}
	if d := receiveOne(t, sub, 2*time.Second); string(d.Payload) != "via config" {
		t.Errorf("payload = %q", d.Payload)
	}
}
