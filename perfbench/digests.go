package main

// paperDigests are the SHA-256 digests of every table the paper-scale
// grid renders (paperrun's output files, summary.json aside), taken from
// paperrun itself on the paper grid. A figures run fails any table whose
// digest differs.
var paperDigests = map[string]string{
	"figure2_gcc.csv":      "79f6d235948899b9a2c927521cde921030ff7be5d586380e32e2d0a6c02e3202",
	"figure2_go.csv":       "66c1747f953969bd93ff9dad9538563c1b6cd5127eae0fb85903e94dd04d98a1",
	"figure2_groff.csv":    "c4764bf603dd234214ea1f1a7e4930b61c01dc23ebb4fbdde890977d909e250d",
	"figure2_li.csv":       "de4c7450bb53f6f08eb135b707a563934aec1660d9a07b4015b04a17488f9326",
	"figure2_perl.csv":     "c212672d52972b7463038a22dd0a1289a3ce6c8cd2697b324b2bb15463451a73",
	"figure4.csv":          "87adb1a0e1eadf9311c193ede64bd4ef1754cb943a03aa56d3881443fa6a4958",
	"figure5_compress.csv": "383976e8e5d9bc34b3e3ea797beb57dfc505ef88667321bd931e5983dab2e57d",
	"figure5_g721.csv":     "7092fc99cfcb73fa13b9af2be128b8331a00c26bb520c8c586b6ed6db44a5791",
	"figure5_gs.csv":       "62639cf987ff3542923bc1c40372218e62b93c3eb61c373fd9e3f29c65799e82",
	"figure5_gsm.csv":      "18b3721ac1f10eef5bec564d2c5931c9e6ff6153096b11bc5cb1497328d005a0",
	"figure5_ijpeg.csv":    "3340a4a7d48c004d7d2ae9c57764885146b773908cf5ec2a15aaaf1ec21484b6",
	"figure5_vortex.csv":   "762ae45c22a365ea672f2f9158f7ab3307c701ba6ffd72cc1383f9176ddac263",
	"figure6.json":         "ee4b5fcc034c3f7729865c85135190e1e5cc5edc8a6f876146c6b4f9f7df9afc",
	"figure7.json":         "0452e101d81090a5272f28026097624457563b08a1afcb24d1f175530e384d35",
	"tables.json":          "3d67114f19a17436f094b7ce4230759c2532aa2edafd45b0a432b41dea622824",
}
