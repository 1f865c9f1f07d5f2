(* Join-cost accounting for Algorithm A.

   Every join of the dense clocks writes all [nthreads] slots of its
   result, so [entry_updates] grows by [nthreads] per join.  The ledger
   reads [entry_updates] around a replay; [--metrics] dumps both
   counters as the [clock.joins] and [clock.entry_updates] gauges. *)

let n_joins = ref 0
let n_entry_updates = ref 0

let note_join ~entries =
  incr n_joins;
  n_entry_updates := !n_entry_updates + entries

let joins () = !n_joins
let entry_updates () = !n_entry_updates

let reset () =
  n_joins := 0;
  n_entry_updates := 0
