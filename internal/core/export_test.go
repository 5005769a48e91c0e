package core

// RandHistory lends the internal tests' random history generator to the
// external test package, whose tests compare against internal/oracle.
var RandHistory = randHistory
