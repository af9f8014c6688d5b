// R5 must-pass: timer-wheel-style code. Tick arithmetic, Timer::time member
// reads, and occupancy bit-scans merely *look* temporal — none of them
// touch a wall clock, entropy, stdout, or a concurrency primitive, so such
// code sits entirely inside the existing determinism carve-outs (no new
// exemption needed for src/sim/). Linted under a pretend path of
// src/sim/event_queue.cpp. (Fixtures are lexed, not compiled, so called
// members need no declarations here.)
struct Timer {
  double time = 0;  // exact fire time carried alongside the coarse tick
  unsigned long seq = 0;
};
unsigned long to_tick(double time) {
  return static_cast<unsigned long>(time * 10000.0);  // value use, no call
}
double fire_time(const Timer& t) { return t.time; }  // member, not ::time()
double fire_time_ptr(const Timer* t) { return t->time; }
double wheel_now(const Wheel& w) { return w.time(); }  // member call is fine
int level_of(unsigned long tick, unsigned long cur_tick) {
  unsigned long diff = tick ^ cur_tick;  // bit_width-style level select
  int level = 0;
  while (diff >>= 6) ++level;
  return level;
}
bool slot_occupied(const unsigned long* occupancy, int slot) {
  return (occupancy[slot >> 6] >> (slot & 63)) & 1u;
}
long timer_count = 0;         // identifier merely containing "timer"
long steady_state_ticks = 0;  // "steady" substring is not steady_clock
long clock_skew_model = 0;    // "clock" substring, never a call
double tick_time_of[64];      // temporal-looking array name
bool cancel(Timer& t) { return t.clock(); }  // member named clock is fine
