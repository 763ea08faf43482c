package main

import (
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestExtensionHelpListsEveryExtension keeps the -extension usage in step
// with the registered extension experiments.
func TestExtensionHelpListsEveryExtension(t *testing.T) {
	help := extensionHelp()
	for _, name := range experiment.ExtensionNames() {
		if !strings.Contains(help, name) {
			t.Errorf("-extension help %q does not name %q", help, name)
		}
		if _, ok := experiment.Extensions()[name]; !ok {
			t.Errorf("extension %q is listed but not runnable", name)
		}
	}
}

func TestRunCustomScenario(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-duration", "5s", "-topologies", "1", "-nodes", "10", "-degree", "4", "-pf", "0.05",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Scenario:", "DCRD", "R-Tree", "D-Tree", "ORACLE", "Multipath"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	var sb strings.Builder
	if err := run([]string{"-figure", "6", "-duration", "5s", "-topologies", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 6") {
		t.Errorf("output missing figure title:\n%s", sb.String())
	}
}

func TestRunFigureCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	var sb strings.Builder
	if err := run([]string{"-figure", "6", "-duration", "5s", "-topologies", "1", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "QoS Req,DCRD,") {
		t.Errorf("CSV header missing:\n%s", sb.String())
	}
}

func TestRunFigureChart(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	var sb strings.Builder
	if err := run([]string{"-figure", "6", "-duration", "5s", "-topologies", "1", "-chart"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "* DCRD") {
		t.Errorf("chart legend missing:\n%s", sb.String())
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-figure", "42"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunRejectsUnknownExtension(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-extension", "bogus"}, &sb); err == nil {
		t.Error("unknown extension accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nodes", "1", "-duration", "5s", "-topologies", "1"}, &sb); err == nil {
		t.Error("1-node scenario accepted")
	}
}
