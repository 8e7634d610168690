package service

// Crash simulates a hard kill of s, for the differential tests in
// package service_test; see crash.
func Crash(s *Service) { s.crash() }
