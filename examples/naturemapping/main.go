// NatureMapping: a larger collaborative-curation scenario in the spirit of
// the paper's motivating application (Sect. 1-2). Volunteers submit animal
// sightings; a panel of experts collaboratively curates them by endorsing,
// disputing, and correcting entries — including explaining *why* another
// curator may have erred (higher-order beliefs). The program then produces
// the curation reports a principal investigator would want: undisputed
// records, open disputes, and per-expert disagreement counts.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"beliefdb"
)

const sightingsRel = "Sightings"

var (
	species   = []string{"red fox", "gray fox", "coyote", "bobcat", "lynx", "marten", "fisher"}
	confusion = map[string]string{ // plausible misidentifications
		"red fox": "gray fox", "gray fox": "red fox",
		"coyote": "gray fox", "bobcat": "lynx", "lynx": "bobcat",
		"marten": "fisher", "fisher": "marten",
	}
	locations = []string{"Cascade Pass", "Hoh Valley", "Palouse Falls", "Twin Lakes"}
)

func main() {
	db, err := beliefdb.Open(beliefdb.Schema{Relations: []beliefdb.Relation{
		{Name: sightingsRel, Columns: []beliefdb.Column{
			{Name: "sid", Type: beliefdb.KindString},
			{Name: "volunteer", Type: beliefdb.KindString},
			{Name: "species", Type: beliefdb.KindString},
			{Name: "location", Type: beliefdb.KindString},
		}},
		{Name: "Notes", Columns: []beliefdb.Column{
			{Name: "nid", Type: beliefdb.KindString},
			{Name: "note", Type: beliefdb.KindString},
			{Name: "sid", Type: beliefdb.KindString},
		}},
	}})
	if err != nil {
		log.Fatal(err)
	}

	experts := []string{"DrMoss", "DrReed", "DrStone"}
	for _, e := range experts {
		if _, err := db.AddUser(e); err != nil {
			log.Fatal(err)
		}
	}

	r := rand.New(rand.NewSource(20090614))

	// Phase 1: volunteers submit 40 field records as plain content. The
	// community treats them as believed-by-default until disputed.
	const nSightings = 40
	for i := 0; i < nSightings; i++ {
		sp := species[r.Intn(len(species))]
		stmt := fmt.Sprintf(
			`insert into Sightings values ('s%02d','vol%d','%s','%s')`,
			i, r.Intn(9)+1, sp, locations[r.Intn(len(locations))])
		if _, err := db.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 2: experts curate. Each expert reviews a sample; for ~1 in 4
	// reviewed records they dispute the species and assert the likely
	// correct one; occasionally they add a higher-order explanation of a
	// colleague's differing opinion.
	reviewed, disputed, explained := 0, 0, 0
	for i := 0; i < nSightings; i++ {
		res, err := db.Query(fmt.Sprintf(
			`select S.sid, S.volunteer, S.species, S.location from Sightings S where S.sid = 's%02d'`, i))
		if err != nil {
			log.Fatal(err)
		}
		row := res.Rows[0]
		sid, vol, sp, loc := row[0].String(), row[1].String(), row[2].String(), row[3].String()
		for _, expert := range experts {
			if r.Float64() > 0.5 {
				continue // this expert did not review the record
			}
			reviewed++
			if r.Float64() > 0.25 {
				continue // reviewed and found plausible: default belief stands
			}
			disputed++
			correct := confusion[sp]
			// The expert rejects the submitted species and proposes the
			// correction under the same external key.
			script := fmt.Sprintf(`
				insert into BELIEF '%[1]s' not Sightings values ('%[2]s','%[3]s','%[4]s','%[5]s');
				insert into BELIEF '%[1]s' Sightings values ('%[2]s','%[3]s','%[6]s','%[5]s');`,
				expert, sid, vol, sp, loc, correct)
			if _, err := db.ExecScript(script); err != nil {
				log.Fatal(err)
			}
			// Sometimes a colleague explains the disagreement with a
			// higher-order note: "DrReed believes DrMoss believes the
			// tracks were canine" etc.
			if r.Float64() < 0.3 {
				other := experts[r.Intn(len(experts))]
				if other != expert {
					explained++
					note := fmt.Sprintf(
						`insert into BELIEF '%s' BELIEF '%s' Notes values ('n%03d','field marks ambiguous','%s')`,
						other, expert, explained, sid)
					if _, err := db.Exec(note); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}
	fmt.Printf("curation pass: %d reviews, %d disputes, %d higher-order explanations\n\n",
		reviewed, disputed, explained)

	// Report 1: open disputes — records where some expert's belief
	// conflicts with the submitted record.
	fmt.Println("== Open disputes (expert vs. submitted record) ==")
	res, err := db.Query(`
		select S2.sid, U.name, S1.species, S2.species
		from Users U,
			Sightings S1,
			BELIEF U.uid Sightings S2
		where S1.sid = S2.sid and S1.species <> S2.species
		order by U.name, S2.sid`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  %s: %s thinks %q, record says %q\n",
			row[0], row[1], row[3].String(), row[2].String())
	}
	fmt.Printf("  (%d disputed records)\n\n", len(res.Rows))

	// Report 2: expert-vs-expert disagreements (the q2 pattern).
	fmt.Println("== Expert disagreements ==")
	res, err = db.Query(`
		select U1.name, U2.name, S1.sid, S1.species, S2.species
		from Users U1, Users U2,
			BELIEF U1.uid Sightings S1,
			BELIEF U2.uid Sightings S2
		where S1.sid = S2.sid and S1.species <> S2.species and U1.uid < U2.uid
		order by U1.name, U2.name, S1.sid`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  %s vs %s on %s: %q vs %q\n", row[0], row[1], row[2], row[3].String(), row[4].String())
	}
	fmt.Printf("  (%d pairs)\n\n", len(res.Rows))

	// Report 3: who disputes the most (negative beliefs per expert),
	// using aggregation over a belief query.
	fmt.Println("== Disputes per expert ==")
	res, err = db.Query(`
		select U.name, COUNT(*) AS disputes
		from Users U, BELIEF U.uid not Sightings S, Sightings P
		where S.sid = P.sid and S.volunteer = P.volunteer
		and S.species = P.species and S.location = P.location
		group by U.name order by disputes desc, U.name`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  %-10s %s\n", row[0], row[1])
	}

	fmt.Println()
	fmt.Print(db.Stats())
}
