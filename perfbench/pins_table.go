package main

// pins holds the expected digest of every pinned job, by size, table
// and seed; see pinFor. Generated with --print-pins.
var pins = map[string]map[string]map[uint64]digest{
	"full": {
		"sim-iid-n1e5": {
			1: {Hash: 0x842c18682b72f5a6, Honest: 25, Adversary: 14},
			2: {Hash: 0xe9dce22b693fd196, Honest: 32, Adversary: 8},
			3: {Hash: 0x7aa8a6e992fc4c7, Honest: 26, Adversary: 10},
			4: {Hash: 0x5f7a4592054e298c, Honest: 30, Adversary: 16},
			5: {Hash: 0x250a7321a3383be7, Honest: 26, Adversary: 18},
			6: {Hash: 0x6d9ff599caa123e2, Honest: 30, Adversary: 14},
		},
		"sim-step-n1e5": {
			1:  {Hash: 0x7bfdde070880ece1, Honest: 85, Adversary: 35},
			2:  {Hash: 0x5f2a1a2f252274d1, Honest: 82, Adversary: 18},
			3:  {Hash: 0x5e19eeaa688bbda9, Honest: 77, Adversary: 31},
			4:  {Hash: 0x40eab4c7e92eae4f, Honest: 82, Adversary: 35},
			5:  {Hash: 0x67430c2297deb9a6, Honest: 68, Adversary: 34},
			6:  {Hash: 0x6db50d3e3a57039a, Honest: 78, Adversary: 28},
			7:  {Hash: 0x68718fd5acff8ad8, Honest: 75, Adversary: 23},
			8:  {Hash: 0x51b5d7fc70290c8a, Honest: 65, Adversary: 31},
			9:  {Hash: 0xc5bef0f3c1dacff3, Honest: 75, Adversary: 28},
			10: {Hash: 0x7a770988bf7b8b13, Honest: 71, Adversary: 33},
			11: {Hash: 0x7af9a43ab7bc9880, Honest: 76, Adversary: 34},
			12: {Hash: 0x91999d9e348c0ef3, Honest: 78, Adversary: 28},
		},
		"sweepd-mix-cell": {
			1:  {Hash: 0x304f762084214bd5, Honest: 289, Adversary: 218},
			2:  {Hash: 0x11f00fb3456885aa, Honest: 282, Adversary: 220},
			3:  {Hash: 0xb52c9f0a1beb88e2, Honest: 313, Adversary: 222},
			4:  {Hash: 0xbe5176687284718b, Honest: 276, Adversary: 231},
			5:  {Hash: 0x274f92e9e608b51e, Honest: 283, Adversary: 247},
			6:  {Hash: 0xfd21d2c3d0afa880, Honest: 299, Adversary: 205},
			7:  {Hash: 0x133052186489863, Honest: 281, Adversary: 205},
			8:  {Hash: 0xdb08a66be6b3c97c, Honest: 268, Adversary: 229},
			9:  {Hash: 0x5bf8f2d871c02dea, Honest: 267, Adversary: 228},
			10: {Hash: 0x55c1c37379624567, Honest: 252, Adversary: 224},
			11: {Hash: 0xa440a68409348059, Honest: 266, Adversary: 220},
			12: {Hash: 0x985d856f3545b148, Honest: 304, Adversary: 209},
		},
	},
	"tiny": {
		"sim-iid-n1e5": {
			1: {Hash: 0xafdd38e0ec429193, Honest: 15, Adversary: 10},
			2: {Hash: 0xcd3d82948d678788, Honest: 19, Adversary: 4},
			3: {Hash: 0x4290a3407106e9c8, Honest: 11, Adversary: 5},
		},
		"sim-step-n1e5": {
			1: {Hash: 0x71714e5bed34dd6e, Honest: 15, Adversary: 10},
			2: {Hash: 0x4446ef1d54410f67, Honest: 19, Adversary: 4},
			3: {Hash: 0xc0c6e550137fac78, Honest: 11, Adversary: 5},
		},
		"sweepd-mix-cell": {
			1: {Hash: 0x543e283bf51638d4, Honest: 30, Adversary: 32},
			2: {Hash: 0xf497d912f57c3da5, Honest: 40, Adversary: 27},
			3: {Hash: 0x8b29ee91b28afe42, Honest: 33, Adversary: 23},
		},
	},
}
