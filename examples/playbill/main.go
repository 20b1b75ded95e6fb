// Playbill: the paper's motivating workload — a deeply ordered document (a
// play) queried with position- and sibling-sensitive XPath, evaluated over
// all three order encodings side by side. For each query it shows the
// result, the per-encoding logical work (index probes + rows scanned), and
// which encoding the translation favours.
//
//	go run ./examples/playbill
package main

import (
	"fmt"
	"log"
	"strings"

	"ordxml"
	"ordxml/internal/xmlgen"
)

func main() {
	play := xmlgen.Play(xmlgen.PlayConfig{
		Acts: 4, ScenesPerAct: 5, SpeechesPerScene: 12, LinesPerSpeech: 4, Seed: 7,
	})
	xml := play.String()

	type env struct {
		name  string
		store *ordxml.Store
		doc   ordxml.DocID
	}
	var envs []env
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		s, err := ordxml.Open(ordxml.Options{Encoding: enc})
		if err != nil {
			log.Fatal(err)
		}
		doc, err := s.LoadString("play", xml)
		if err != nil {
			log.Fatal(err)
		}
		envs = append(envs, env{enc.String(), s, doc})
	}
	fmt.Printf("loaded a %d-node play into all three encodings\n\n", play.Size())

	queries := []struct {
		label string
		xpath string
	}{
		{"who opens act 2, scene 1?", "/PLAY/ACT[2]/SCENE[1]/SPEECH[1]/SPEAKER"},
		{"the last speech of the play's first scene", "/PLAY/ACT[1]/SCENE[1]/SPEECH[last()]/SPEAKER"},
		{"speeches right after the third one", "/PLAY/ACT[1]/SCENE[1]/SPEECH[3]/following-sibling::SPEECH[1]/SPEAKER"},
		{"every scene title", "//SCENE/TITLE"},
		{"all of HAMLET's lines in act 1", "/PLAY/ACT[1]//SPEECH[SPEAKER = 'HAMLET']/LINE"},
	}
	for _, q := range queries {
		fmt.Printf("%s\n  %s\n", q.label, q.xpath)
		for _, e := range envs {
			before := examined(e.store)
			vals, err := e.store.QueryValues(e.doc, q.xpath)
			if err != nil {
				log.Fatalf("%s on %s: %v", q.xpath, e.name, err)
			}
			work := examined(e.store) - before
			preview := ""
			if len(vals) > 0 {
				preview = vals[0]
				if len(preview) > 30 {
					preview = preview[:30] + "..."
				}
				if len(vals) > 1 {
					preview += fmt.Sprintf(" (+%d more)", len(vals)-1)
				}
			}
			fmt.Printf("  %-6s  %3d result(s)  work=%-5d  %s\n",
				e.name, len(vals), work, preview)
		}
		fmt.Println()
	}

	// The encodings diverge hardest on the descendant axis: show the SQL.
	fmt.Println("descendant-axis translation (//SPEAKER) per encoding:")
	for _, e := range envs {
		sqls, err := e.store.ExplainQuery(e.doc, "/PLAY/ACT[1]//SPEAKER")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %d statement(s)\n", e.name, len(sqls))
		for _, s := range sqls {
			fmt.Printf("    %s\n", clip(s, 120))
		}
	}
}

func clip(s string, n int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// examined is the store's cumulative logical read work: index entries
// visited plus rows scanned.
func examined(s *ordxml.Store) int64 {
	m := s.Metrics()
	return m.Gauges["storage.index_probes"] + m.Gauges["storage.rows_scanned"]
}
