(* The benchmark's OCaml side; [run.py] drives it.

   ledger gen WORKLOAD SEED DIR
     Write the generated program to DIR/program.tml and print, as JSON,
     the arguments [jmpax run] and [jmpax stream] get.
   ledger score WORKLOAD SEED DIR PRODUCER_EXIT OBSERVER_EXIT FUEL0
     Score DIR/producer.out and DIR/observer.out against the known
     answer (FUEL0 = 1 for a [--fuel 0] set-up run); exit 1 on a wrong
     run, listing every difference on stderr.
   ledger layers WORKLOAD SEED DIR SECONDS
     The traced in-process run: print the per-layer metrics as JSON. *)

open Ledger_lib

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_list l = "[" ^ String.concat ", " (List.map json_string l) ^ "]"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

let workload_arg s =
  match Gen.of_name s with
  | Some w -> w
  | None -> die "unknown workload %S (known: %s)" s (String.concat ", " (List.map Gen.name Gen.all))

let int_arg s = match int_of_string_opt s with Some n -> n | None -> die "not an integer: %S" s

let checkpoint_path dir = Filename.concat dir "observer.ckpt"

let gen w seed dir =
  let g = Gen.make w ~seed in
  let program = Filename.concat dir "program.tml" in
  Out_channel.with_open_bin program (fun oc -> output_string oc g.Gen.source);
  let ck = if g.Gen.checkpoint_every = None then None else Some (checkpoint_path dir) in
  print_endline
    (json_object
       [ ("program", json_string program);
         ("run", json_list (Gen.run_args g ~fuel0:false));
         ("run_fuel0", json_list (Gen.run_args g ~fuel0:true));
         ("stream", json_list (Gen.stream_args g ~checkpoint:ck));
         ("checkpoint", match ck with Some p -> json_string p | None -> "null");
         ("messages", string_of_int g.Gen.messages);
         ("nthreads", string_of_int g.Gen.nthreads) ])

let score w seed dir producer_exit observer_exit fuel0 =
  let g = Gen.make w ~seed in
  let expected = Gen.answer g ~fuel0 ~checkpoint:(Some (checkpoint_path dir)) in
  let observed =
    Answer.of_processes ~producer_exit
      ~producer_stdout:(read_file (Filename.concat dir "producer.out"))
      ~observer_exit
      ~observer_stdout:(read_file (Filename.concat dir "observer.out"))
  in
  match Answer.score expected observed with
  | [] -> ()
  | errors ->
      List.iter (fun e -> prerr_endline ("ledger: wrong answer: " ^ e)) errors;
      exit 1

let layers w seed dir seconds =
  let g = Gen.make w ~seed in
  let metrics, attempted, failed = Layers.run g ~dir ~seconds in
  print_endline
    (json_object
       [ ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_object (List.map (fun (k, v) -> (k, Printf.sprintf "%.17g" v)) metrics) ) ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; dir ] -> gen (workload_arg w) (int_arg seed) dir
  | [ "score"; w; seed; dir; pe; oe; fuel0 ] ->
      score (workload_arg w) (int_arg seed) dir (int_arg pe) (int_arg oe) (fuel0 = "1")
  | [ "layers"; w; seed; dir; seconds ] ->
      layers (workload_arg w) (int_arg seed) dir (float_of_int (int_arg seconds))
  | _ ->
      die
        "usage: ledger gen W SEED DIR | score W SEED DIR PRODUCER_EXIT OBSERVER_EXIT FUEL0 | \
         layers W SEED DIR SECONDS"
