package main

// pinnedDigests are the output digests of every digested operation at the
// default seed and full size: Table-1 outcomes, the network run, the Suite
// cells and SuiteReport JSON of the frontier, and the served report bytes.
// After an intentional change to the outputs, TestPinnedDigests prints
// the new map.
var pinnedDigests = map[string]string{
	"table1/T1.1":     "26f1121f3b07ca8f",
	"table1/T1.2a":    "fe84b0ea71789fce",
	"table1/T1.2b":    "2e9ffc6187ca56f6",
	"table1/T1.2c":    "6051507b334beea0",
	"table1/T1.3":     "d872b74c08d9b1b3",
	"table1/T1.4":     "c8f92be7fb020770",
	"table1/T1.5":     "c97baf033ded6ba7",
	"table1/T1.6":     "029269c44de403c4",
	"table1/T1.7":     "f4461a951732a063",
	"table1/T1.8":     "6d626b34a911edb7",
	"table1/T1.9":     "b7238962e33b1085",
	"network/run":     "6625ae31837af286",
	"frontier/cell0":  "fe1185f923a2150c",
	"frontier/cell1":  "a01031c0a0eab2ee",
	"frontier/cell2":  "ccbf01e3ab23f0ca",
	"frontier/cell3":  "3cd717af1eab41cb",
	"frontier/cell4":  "562d0c96aaf08809",
	"frontier/cell5":  "fe8eb9e472fa2bcd",
	"frontier/cell6":  "ad544fb5ea772cf8",
	"frontier/cell7":  "b74813467f9b85d7",
	"frontier/cell8":  "998138585334a9de",
	"frontier/cell9":  "6afe68c22ffc8d7a",
	"frontier/cell10": "4055f468de05932f",
	"frontier/cell11": "bf0091005b13aebf",
	"frontier/report": "dbbb657ef94cdc0e",
	"serve/reports":   "82b2faff132a0e01",
}
