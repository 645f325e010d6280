package main

// Example_main compiles and runs the paper's Sect. 2 running example end to end under
// `go test`, pinning its deterministic output: CI now executes every
// example instead of merely hoping it still builds.
func Example_main() {
	main()

	// Output:
	// == Belief worlds (canonical Kripke structure, Fig. 4) ==
	// root (message board):
	//   Sightings('s1','Carol','bald eagle','6-14-08','Lake Forest')+  (explicit)
	// Alice believes:
	//   Comments('c1','found feathers','s2')+  (explicit)
	//   Sightings('s1','Carol','bald eagle','6-14-08','Lake Forest')+  (inherited)
	//   Sightings('s2','Alice','crow','6-14-08','Lake Placid')+  (explicit)
	// Bob believes:
	//   Comments('c2','purple-black feathers','s2')+  (explicit)
	//   Sightings('s2','Alice','raven','6-14-08','Lake Placid')+  (explicit)
	//   Sightings('s1','Carol','bald eagle','6-14-08','Lake Forest')-  (explicit)
	//   Sightings('s1','Carol','fish eagle','6-14-08','Lake Forest')-  (explicit)
	// Bob believes Alice believes:
	//   Comments('c1','found feathers','s2')+  (inherited)
	//   Comments('c2','black feathers','s2')+  (explicit)
	//   Sightings('s1','Carol','bald eagle','6-14-08','Lake Forest')+  (inherited)
	//   Sightings('s2','Alice','crow','6-14-08','Lake Placid')+  (inherited)
	//
	// == q1: sightings at Lake Placid that Bob believes ==
	// s2 | Alice | raven
	//
	// == q2: entries on which users disagree with Alice ==
	// Bob | crow | raven
	//
	// == The SQL q2 compiles to (Algorithm 1) ==
	// SELECT DISTINCT U2.name, S1.species, S2.species FROM Users AS U1, Users AS U2, _e AS _e1, Sightings_v AS _v1, Sightings_star AS S1, _e AS _e2, Sightings_v AS _v2, Sightings_star AS S2 WHERE (((((((((((((_e1.wid1 = 0) AND (_e1.uid = U1.uid)) AND (_v1.wid = _e1.wid2)) AND (_v1.tid = S1.tid)) AND (_v1.s = '+')) AND (_e2.wid1 = 0)) AND (_e2.uid = U2.uid)) AND (_v2.wid = _e2.wid2)) AND (_v2.tid = S2.tid)) AND (_v2.s = '+')) AND (U1.name = 'Alice')) AND (S1.sid = S2.sid)) AND (S1.species <> S2.species))
	//
	// == Representation size ==
	// |R*| = 38 rows over 8 tables (n=8 annotations, N=4 states, m=3 users, overhead 4.8)
	//   Comments_star                   3
	//   Comments_v                      4
	//   Sightings_star                  4
	//   Sightings_v                     8
	//   Users                           3
	//   _d                              4
	//   _e                              9
	//   _s                              3
}
