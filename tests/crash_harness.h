// Defines OCT_CRASH_HARNESS when a test may fork a child that dies on
// purpose (abort or SIGKILL) and check the aftermath from the parent.
// Sanitizer runtimes do not survive fork + SIGKILL/abort harnesses well
// (TSan deadlocks in multi-threaded fork children; dying children leak by
// design), so the harness runs only in plain builds on POSIX.

#ifndef OCT_TESTS_CRASH_HARNESS_H_
#define OCT_TESTS_CRASH_HARNESS_H_

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define OCT_CRASH_HARNESS 1
#endif

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#undef OCT_CRASH_HARNESS
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#undef OCT_CRASH_HARNESS
#endif
#endif

#endif  // OCT_TESTS_CRASH_HARNESS_H_
