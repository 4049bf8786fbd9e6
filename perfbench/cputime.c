/* Thread CPU time in nanoseconds. Unlike the monotonic clock it leaves
   out the time the vCPU was not running this thread (hypervisor steal,
   preemption by other processes), which dominated run-to-run spread of
   millisecond-scale host timings on shared 2-vCPU guests. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
