package monitordb

// FootprintWalk exposes the reference walk to the external test package,
// whose recovery test drives the store through the engine and WAL.
var FootprintWalk = footprintWalk
