package server

// StreamCredit is the granted stream window, for the external test package.
const StreamCredit = defaultStreamCredit
