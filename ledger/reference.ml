(* The benchmark's speed reference: a fixed hash-table and allocation
   loop, shaped like the observer's work but using nothing from the repo,
   so no change to jmpax can make it faster or slower.  It prints the
   seconds its loop took; run.py runs it before every timed pipeline and
   scales the pipeline timings by how fast the machine ran it. *)

let () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for round = 1 to 3 do
    for i = 0 to 60_000 do
      let k = (i * 7919) land 0xffff in
      let l = try Hashtbl.find h k with Not_found -> [] in
      Hashtbl.replace h k ((i + round) :: (if List.length l > 4 then [] else l));
      acc := !acc + List.length l
    done
  done;
  (* The checksum keeps the loop from being optimised away. *)
  Printf.printf "%.9f %d\n" (Unix.gettimeofday () -. t0) !acc
