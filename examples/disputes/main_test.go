package main

// Example_main compiles and runs dispute reporting over higher-order beliefs under
// `go test`, pinning its deterministic output: CI now executes every
// example instead of merely hoping it still builds.
func Example_main() {
	main()

	// Output:
	// BCQ (Def. 13):  q(x,y,z) :- [y]R+(x,u,v), [z]R-(x,u,v)
	//
	// Algorithm 1 translation:
	//   SELECT DISTINCT R1.sample, U1.name, U2.name FROM Users AS U1, Users AS U2, _e AS _e1, R_v AS _v1, R_star AS R1 WHERE ((((((_e1.wid1 = 0) AND (_e1.uid = U1.uid)) AND (_v1.wid = _e1.wid2)) AND (_v1.tid = R1.tid)) AND (_v1.s = '+')) AND EXISTS (SELECT 1 FROM _e AS _e2, R_v AS _v2, R_star AS R2 WHERE ((((((_e2.wid1 = 0) AND (_e2.uid = U2.uid)) AND (_v2.wid = _e2.wid2)) AND (_v2.key = R1.sample)) AND (R2.tid = _v2.tid)) AND ((((_v2.s = '-') AND ((R2.category = R1.category) OR ((R2.category IS NULL) AND (R1.category IS NULL)))) AND ((R2.origin = R1.origin) OR ((R2.origin IS NULL) AND (R1.origin IS NULL)))) OR ((_v2.s = '+') AND (NOT (((R2.category = R1.category) OR ((R2.category IS NULL) AND (R1.category IS NULL))) AND ((R2.origin = R1.origin) OR ((R2.origin IS NULL) AND (R1.origin IS NULL))))))))))
	//
	// Disputed samples (sample, believer, disputer):
	//   m01  believed by ana  disputed by ben
	//   m01  believed by ana  disputed by cho
	//   m01  believed by ana  disputed by dee
	//   m01  believed by ben  disputed by ana
	//   m01  believed by cho  disputed by ana
	//   m01  believed by dee  disputed by ana
	//   m02  believed by ana  disputed by cho
	//   m02  believed by ben  disputed by cho
	//   m02  believed by cho  disputed by ana
	//   m02  believed by cho  disputed by ben
	//   m02  believed by cho  disputed by dee
	//   m02  believed by dee  disputed by cho
	//   m03  believed by ana  disputed by dee
	//   m03  believed by ben  disputed by dee
	//   m03  believed by cho  disputed by dee
	//   m03  believed by dee  disputed by ana
	//   m03  believed by dee  disputed by ben
	//   m03  believed by dee  disputed by cho
	//
	// ana believes the site-A record of m02: true
	// cho disbelieves it (unstated, via her site-B reading): true
	// cho believes her own site-B reading: true
	//
	// ben believes that ana believes her andesite reading: true
	// ben believes the andesite reading himself: false
}
