//! The admission queue and thread-budget scheduler — a pure state machine.
//!
//! All policy lives here, lock-free and thread-free, so it can be unit
//! tested deterministically; [`crate::QueryService`] wraps one `Scheduler`
//! in a mutex and parks waiting sessions on a condvar.
//!
//! ## Policy
//!
//! * **Budget.** Every running query holds a *lease* of `1..=budget`
//!   worker threads; the sum of outstanding leases never exceeds the
//!   budget. A query is admitted to run as soon as at least one thread is
//!   free — its lease is the model's optimal thread count clamped to what
//!   remains. The high-water mark of leased threads is recorded pool-side
//!   so tests can assert the budget held.
//! * **Order.** Under load, waiting queries start
//!   shortest-expected-cost-first (the classic mean-latency-optimal rule),
//!   using the whole-query quote from [`costmodel::quote`]. Each time a
//!   cheaper, younger query starts ahead of a waiting one, the bypassed
//!   query's counter grows; at the starvation bound it becomes *urgent*
//!   and is scheduled FIFO ahead of any cost consideration.
//! * **Admission.** A submission that cannot start immediately queues; a
//!   submission arriving at a full queue is rejected outright — shedding
//!   load at admission time instead of letting latency grow without bound.
//! * **Gating.** [`Scheduler::pause`] holds every new submission in the
//!   queue even while threads are free, and [`Scheduler::resume`]
//!   dispatches the accumulated wave. Used to drain the pool (maintenance)
//!   and to form deterministic admission waves — e.g. so a shared-scan
//!   experiment can guarantee every member of a wave is queued before the
//!   first one claims the cooperative pass.
//! * **Dispatch.** Every transition that can free a thread or queue a
//!   ticket — [`Scheduler::release`], [`Scheduler::requeue`],
//!   [`Scheduler::resume`] — dispatches before it returns, into a grant
//!   ledger the waiters pick up from ([`Scheduler::take_grant`]). So after
//!   any public transition, an unpaused scheduler has an empty queue or a
//!   fully leased budget: no caller can leave a free thread undispatched.

/// One waiting query.
#[derive(Debug, Clone)]
struct Ticket {
    /// Ticket id (also the submission sequence number: ids are issued in
    /// arrival order).
    id: u64,
    /// Whole-query sequential cost quote in nanoseconds.
    cost_ns: f64,
    /// Model-optimal thread count for this query.
    desired: usize,
    /// How many times a younger query started ahead of this one.
    bypassed: usize,
}

/// A thread lease granted to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The ticket the lease belongs to.
    pub ticket: u64,
    /// Leased worker threads (`1..=budget`).
    pub threads: usize,
}

/// What happened to a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Capacity was free: the query starts immediately with this lease.
    Run(Grant),
    /// The budget is fully leased: the query waits in the admission queue
    /// under this ticket until a dispatch grants it
    /// ([`Scheduler::take_grant`]).
    Queued(u64),
    /// The queue is full: the query is shed at admission time.
    Rejected,
}

/// The pure scheduling state machine. See the [module docs](self).
#[derive(Debug)]
pub struct Scheduler {
    budget: usize,
    queue_limit: usize,
    starvation_bound: usize,
    in_use: usize,
    high_water: usize,
    paused: bool,
    waiting: Vec<Ticket>,
    /// Leases dispatched to queued tickets and not yet picked up, in
    /// dispatch order.
    granted: Vec<Grant>,
    next_id: u64,
}

impl Scheduler {
    /// A scheduler over `budget` worker threads (clamped to >= 1).
    pub fn new(budget: usize, queue_limit: usize, starvation_bound: usize) -> Self {
        Self {
            budget: budget.max(1),
            queue_limit,
            starvation_bound,
            in_use: 0,
            high_water: 0,
            paused: false,
            waiting: Vec::new(),
            granted: Vec::new(),
            next_id: 0,
        }
    }

    /// Submit a query with its whole-query cost quote and model-desired
    /// thread count.
    pub fn submit(&mut self, cost_ns: f64, desired_threads: usize) -> Admission {
        let id = self.next_id;
        self.next_id += 1;
        // By the dispatch invariant a free thread means nobody is waiting,
        // so the newcomer may start. A paused scheduler queues everyone.
        let admission = if !self.paused && self.in_use < self.budget && self.waiting.is_empty() {
            let threads = self.lease(desired_threads);
            Admission::Run(Grant { ticket: id, threads })
        } else if self.waiting.len() >= self.queue_limit {
            Admission::Rejected
        } else {
            self.waiting.push(Ticket { id, cost_ns, desired: desired_threads, bypassed: 0 });
            Admission::Queued(id)
        };
        self.assert_dispatched();
        admission
    }

    /// Return `threads` of a lease and dispatch as many waiting queries
    /// as now fit (none while paused).
    pub fn release(&mut self, threads: usize) {
        self.in_use = self.in_use.saturating_sub(threads);
        self.dispatch();
    }

    /// Return `held` threads (`0` when the lease was already released) and
    /// put an admitted query back in line under a new ticket, then
    /// dispatch — a preempted elevator runner yielding between chunks, or a
    /// query re-acquiring after it waited out another runner's pass. Unlike
    /// [`Scheduler::submit`] this never rejects: the query is already
    /// admitted, and shedding it now would lose work. The returned ticket
    /// may already be granted.
    pub fn requeue(&mut self, held: usize, cost_ns: f64, desired_threads: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.in_use = self.in_use.saturating_sub(held);
        self.waiting.push(Ticket { id, cost_ns, desired: desired_threads, bypassed: 0 });
        self.dispatch();
        id
    }

    /// Pick up the lease a dispatch granted to queued `ticket`, once.
    pub fn take_grant(&mut self, ticket: u64) -> Option<usize> {
        let pos = self.granted.iter().position(|g| g.ticket == ticket)?;
        Some(self.granted.remove(pos).threads)
    }

    /// Pick up the oldest lease not yet picked up — for a caller that runs
    /// its queued work itself, in dispatch order.
    pub fn next_grant(&mut self) -> Option<Grant> {
        (!self.granted.is_empty()).then(|| self.granted.remove(0))
    }

    /// The cheapest cost quote among waiting queries (`None` when nobody
    /// waits) — the elevator runner's preemption test between chunks.
    pub fn cheapest_waiting_cost(&self) -> Option<f64> {
        self.waiting.iter().map(|t| t.cost_ns).min_by(f64::total_cmp)
    }

    /// Hold all future submissions in the queue, even while threads are
    /// free. Running queries are unaffected.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Reopen admission and dispatch the accumulated wave as far as the
    /// budget allows.
    pub fn resume(&mut self) {
        self.paused = false;
        self.dispatch();
    }

    /// Whether admission is currently gated.
    pub fn paused(&self) -> bool {
        self.paused
    }

    fn dispatch(&mut self) {
        while !self.paused && self.in_use < self.budget && !self.waiting.is_empty() {
            let pos = self.pick();
            let ticket = self.waiting.remove(pos);
            for w in &mut self.waiting {
                if w.id < ticket.id {
                    w.bypassed += 1;
                }
            }
            let threads = self.lease(ticket.desired);
            self.granted.push(Grant { ticket: ticket.id, threads });
        }
        self.assert_dispatched();
    }

    /// The dispatch invariant every public transition re-establishes.
    fn assert_dispatched(&self) {
        debug_assert!(
            self.paused || self.waiting.is_empty() || self.in_use >= self.budget,
            "unpaused with {} waiting and {}/{} threads leased",
            self.waiting.len(),
            self.in_use,
            self.budget
        );
    }

    /// Lease `desired` threads, clamped to `1..=` the remaining budget.
    /// Callers guarantee `in_use < budget`.
    fn lease(&mut self, desired: usize) -> usize {
        let threads = desired.clamp(1, self.budget - self.in_use);
        self.in_use += threads;
        self.high_water = self.high_water.max(self.in_use);
        threads
    }

    /// The index of the next ticket to start: the oldest urgent ticket
    /// (bypassed >= starvation bound) if any, else the cheapest (ties to
    /// the older submission).
    fn pick(&self) -> usize {
        let urgent = self
            .waiting
            .iter()
            .enumerate()
            .filter(|(_, t)| t.bypassed >= self.starvation_bound)
            .min_by_key(|(_, t)| t.id);
        if let Some((pos, _)) = urgent {
            return pos;
        }
        self.waiting
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.cost_ns.total_cmp(&b.cost_ns).then(a.id.cmp(&b.id)))
            .map(|(pos, _)| pos)
            .expect("pick() is only called on a non-empty queue")
    }

    /// Threads currently leased.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// The most threads ever leased at once — the pool-side witness that
    /// the budget held.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Queries currently waiting.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// The configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_threads(a: &Admission) -> usize {
        match a {
            Admission::Run(g) => g.threads,
            other => panic!("expected immediate run, got {other:?}"),
        }
    }

    fn queued_id(a: &Admission) -> u64 {
        match a {
            Admission::Queued(id) => *id,
            other => panic!("expected queued, got {other:?}"),
        }
    }

    /// Every grant not yet picked up, in dispatch order.
    fn granted(s: &mut Scheduler) -> Vec<Grant> {
        std::iter::from_fn(|| s.next_grant()).collect()
    }

    /// Release `threads` and return the one ticket that dispatch granted.
    fn release_one(s: &mut Scheduler, threads: usize) -> u64 {
        s.release(threads);
        match granted(s)[..] {
            [g] => g.ticket,
            ref other => panic!("expected one grant, got {other:?}"),
        }
    }

    #[test]
    fn immediate_admission_clamps_leases_to_the_remaining_budget() {
        let mut s = Scheduler::new(4, 8, 4);
        // First query wants 8 threads: gets the whole budget of 4.
        assert_eq!(run_threads(&s.submit(1e9, 8)), 4);
        assert_eq!(s.in_use(), 4);
        assert_eq!(s.high_water(), 4);
        // Budget full: next submission queues.
        let q = queued_id(&s.submit(1e3, 2));
        assert_eq!(s.take_grant(q), None, "nothing freed yet");
        // Release 4, the waiter gets its 2 — once.
        s.release(4);
        assert_eq!(s.take_grant(q), Some(2));
        assert_eq!(s.take_grant(q), None);
        assert_eq!(s.in_use(), 2);
        // A newcomer can only lease the 2 remaining threads.
        assert_eq!(run_threads(&s.submit(1e9, 8)), 2);
        assert_eq!(s.high_water(), 4, "never above budget");
    }

    #[test]
    fn shortest_cost_first_under_load() {
        let mut s = Scheduler::new(1, 8, 100);
        let _running = s.submit(1.0, 1);
        let slow = queued_id(&s.submit(9e9, 1));
        let fast = queued_id(&s.submit(1e3, 1));
        let medium = queued_id(&s.submit(1e6, 1));
        // Each release admits exactly one (budget 1): cheapest first.
        assert_eq!(release_one(&mut s, 1), fast);
        assert_eq!(release_one(&mut s, 1), medium);
        assert_eq!(release_one(&mut s, 1), slow);
    }

    #[test]
    fn starvation_bound_turns_sjf_into_fifo() {
        let mut s = Scheduler::new(1, 100, 2);
        let _running = s.submit(1.0, 1);
        let expensive = queued_id(&s.submit(9e9, 1));
        // A stream of cheap queries keeps arriving; without the bound the
        // expensive one would wait forever.
        let c1 = queued_id(&s.submit(1e3, 1));
        assert_eq!(release_one(&mut s, 1), c1, "bypass 1");
        let c2 = queued_id(&s.submit(1e3, 1));
        assert_eq!(release_one(&mut s, 1), c2, "bypass 2 - at the bound now");
        let c3 = queued_id(&s.submit(1e3, 1));
        let got = release_one(&mut s, 1);
        assert_eq!(got, expensive, "urgent ticket must beat cheaper newcomer {c3}");
        assert_eq!(release_one(&mut s, 1), c3);
    }

    #[test]
    fn pause_gates_admission_and_resume_dispatches_the_wave() {
        let mut s = Scheduler::new(2, 8, 4);
        s.pause();
        assert!(s.paused());
        let a = queued_id(&s.submit(1e3, 1));
        let b = queued_id(&s.submit(2e3, 1));
        assert_eq!(s.in_use(), 0, "free threads stay free while paused");
        s.release(0);
        assert!(granted(&mut s).is_empty(), "releases dispatch nothing while paused");
        s.resume();
        let grants = granted(&mut s);
        assert_eq!(grants.len(), 2, "resume dispatches the whole wave");
        assert_eq!(grants[0].ticket, a, "cheapest first");
        assert_eq!(grants[1].ticket, b);
        assert!(!s.paused());
        s.release(1);
        s.release(1);
        assert!(matches!(s.submit(1.0, 1), Admission::Run(_)), "unpaused admission is immediate");
    }

    #[test]
    fn full_queue_rejects() {
        let mut s = Scheduler::new(1, 2, 4);
        let _running = s.submit(1.0, 1);
        assert!(matches!(s.submit(1.0, 1), Admission::Queued(_)));
        assert!(matches!(s.submit(1.0, 1), Admission::Queued(_)));
        assert_eq!(s.submit(1.0, 1), Admission::Rejected);
        assert_eq!(s.waiting(), 2, "rejected submissions leave no ticket behind");
        // Draining the queue reopens admission.
        s.release(1);
        assert!(matches!(s.submit(1.0, 1), Admission::Queued(_)));
    }

    #[test]
    fn one_release_dispatches_several_small_leases() {
        let mut s = Scheduler::new(4, 8, 4);
        let _big = s.submit(1e9, 4);
        let a = queued_id(&s.submit(1e3, 1));
        let b = queued_id(&s.submit(2e3, 1));
        let c = queued_id(&s.submit(3e3, 4));
        // The big query finishes: all three waiters fit (1 + 1 + 2-clamped).
        s.release(4);
        let grants = granted(&mut s);
        assert_eq!(grants.len(), 3);
        assert_eq!(grants[0], Grant { ticket: a, threads: 1 });
        assert_eq!(grants[1], Grant { ticket: b, threads: 1 });
        assert_eq!(grants[2], Grant { ticket: c, threads: 2 }, "last lease clamps to remainder");
        assert_eq!(s.in_use(), 4);
        assert_eq!(s.high_water(), 4);
    }

    #[test]
    fn requeue_never_rejects_and_dispatches_when_threads_free() {
        let mut s = Scheduler::new(1, 1, 4);
        let _running = s.submit(1.0, 1);
        assert!(matches!(s.submit(1.0, 1), Admission::Queued(_)));
        assert_eq!(s.submit(1.0, 1), Admission::Rejected, "queue full for newcomers");
        // A preempted runner must always get back in line, full queue or
        // not; giving its thread back in the same call, at cost 0 it wins
        // the dispatch that call makes.
        let back = s.requeue(1, 0.0, 1);
        assert_eq!(s.waiting(), 1);
        assert_eq!(s.take_grant(back), Some(1));
        // A requeue into a free budget is granted by the requeue itself —
        // the transition that once left the dispatch to its caller.
        let mut s = Scheduler::new(1, 8, 4);
        let id = s.requeue(0, 5.0, 1);
        assert_eq!(s.take_grant(id), Some(1));
        assert_eq!(s.in_use(), 1);
    }

    #[test]
    fn cheapest_waiting_cost_tracks_the_queue() {
        let mut s = Scheduler::new(1, 8, 4);
        assert_eq!(s.cheapest_waiting_cost(), None);
        let _running = s.submit(1.0, 1);
        s.submit(9e9, 1);
        s.submit(1e3, 1);
        assert_eq!(s.cheapest_waiting_cost(), Some(1e3));
        s.release(1); // dispatches the cheap one
        assert_eq!(s.cheapest_waiting_cost(), Some(9e9));
    }

    #[test]
    fn high_water_never_exceeds_budget_under_churn() {
        let mut s = Scheduler::new(3, 1000, 2);
        let mut live: Vec<usize> = Vec::new();
        let mut pending = 0usize;
        for i in 0..200u64 {
            match s.submit((i % 17) as f64 * 1e6, (i % 5) as usize + 1) {
                Admission::Run(g) => live.push(g.threads),
                Admission::Queued(_) => pending += 1,
                Admission::Rejected => unreachable!("queue limit is large"),
            }
            if i % 3 == 0 {
                if let Some(t) = live.pop() {
                    s.release(t);
                    for g in granted(&mut s) {
                        live.push(g.threads);
                        pending -= 1;
                    }
                }
            }
            assert!(s.in_use() <= 3, "i={i}");
        }
        while let Some(t) = live.pop() {
            s.release(t);
            for g in granted(&mut s) {
                live.push(g.threads);
                pending -= 1;
            }
        }
        assert_eq!(pending, 0, "every queued query eventually ran");
        assert_eq!(s.in_use(), 0);
        assert!(s.high_water() <= 3);
        assert!(s.high_water() >= 1);
    }

    /// The scheduler explorer: every interleaving of a few modelled
    /// sessions, driven through the real [`Scheduler`] the service uses.
    /// Each session is a program over its lease, mirroring one path of
    /// `QueryService::run_plan`; a *state* is the scheduler plus every
    /// program counter, and the explorer visits each reachable state once.
    mod explore {
        use super::*;
        use std::collections::HashSet;

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Role {
            /// Runs, then releases.
            Plain,
            /// Claims a cooperative pass when granted, publishes it, then
            /// releases.
            Runner,
            /// When granted while the runner's pass is in flight: hands its
            /// lease back, waits for the publication, re-queues at cost 0,
            /// and releases once re-granted.
            Waiter,
            /// An expensive chunked pass: at each of two boundaries it
            /// yields its lease (one `requeue`) when a cheaper query waits.
            Elevator,
        }

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Pc {
            Start,
            /// Queued under this ticket: blocked until a dispatch grants it.
            Queued(u64),
            /// Holding a lease of this many threads.
            Running(usize),
            /// Lease handed back: blocked until the pass publishes.
            AwaitPublish,
            Done,
        }

        #[derive(Debug)]
        struct World {
            sched: Scheduler,
            roles: Vec<Role>,
            pcs: Vec<Pc>,
            /// Per session, how far through its program it is.
            steps: Vec<u8>,
            claimed: bool,
            published: bool,
        }

        impl World {
            /// The state after `path`: actor `i < roles.len()` is session
            /// `i`, actor `roles.len()` reopens gated admission.
            fn replay(roles: &[Role], budget: usize, gated: bool, path: &[usize]) -> Self {
                let mut w = World {
                    sched: Scheduler::new(budget, 16, 2),
                    roles: roles.to_vec(),
                    pcs: vec![Pc::Start; roles.len()],
                    steps: vec![0; roles.len()],
                    claimed: false,
                    published: false,
                };
                if gated {
                    w.sched.pause();
                }
                for &i in path {
                    w.step(i).expect("a replayed step was enabled");
                }
                w
            }

            /// Take actor `i`'s next step; the scheduler transition it made
            /// (`None`: the actor is blocked or done).
            fn step(&mut self, i: usize) -> Option<&'static str> {
                if i == self.roles.len() {
                    if !self.sched.paused() {
                        return None;
                    }
                    self.sched.resume();
                    return Some("resume");
                }
                let role = self.roles[i];
                let (cost, desired) = if role == Role::Elevator { (1e9, 2) } else { (1e3, 1) };
                match self.pcs[i] {
                    Pc::Start => {
                        self.pcs[i] = match self.sched.submit(cost, desired) {
                            Admission::Run(g) => self.grant(i, g.threads),
                            Admission::Queued(t) => Pc::Queued(t),
                            Admission::Rejected => unreachable!("the queue limit is large"),
                        };
                        Some("submit")
                    }
                    Pc::Queued(t) => {
                        let threads = self.sched.take_grant(t)?;
                        self.pcs[i] = self.grant(i, threads);
                        Some("take_grant")
                    }
                    Pc::AwaitPublish => {
                        if !self.published {
                            return None;
                        }
                        self.pcs[i] = Pc::Queued(self.sched.requeue(0, 0.0, 1));
                        Some("requeue")
                    }
                    Pc::Running(threads) => {
                        let at = self.steps[i];
                        self.steps[i] += 1;
                        match role {
                            Role::Runner if at == 0 => {
                                self.published = true;
                                Some("publish")
                            }
                            Role::Waiter if at == 0 && self.claimed && !self.published => {
                                self.sched.release(threads);
                                self.pcs[i] = Pc::AwaitPublish;
                                Some("release")
                            }
                            Role::Elevator if at < 2 => {
                                let remaining = cost * f64::from(2 - at) / 2.0;
                                if self.sched.paused()
                                    || self
                                        .sched
                                        .cheapest_waiting_cost()
                                        .is_none_or(|c| c >= remaining)
                                {
                                    return Some("boundary");
                                }
                                let ticket = self.sched.requeue(threads, remaining, desired);
                                self.pcs[i] = Pc::Queued(ticket);
                                Some("requeue")
                            }
                            _ => {
                                self.sched.release(threads);
                                self.pcs[i] = Pc::Done;
                                Some("release")
                            }
                        }
                    }
                    Pc::Done => None,
                }
            }

            /// A session starts running on a grant; a runner claims its pass.
            fn grant(&mut self, i: usize, threads: usize) -> Pc {
                if self.roles[i] == Role::Runner {
                    self.claimed = true;
                }
                Pc::Running(threads)
            }
        }

        /// Visit every state reachable from the start; panics on a state
        /// where every unfinished session is blocked, on a transition that
        /// leaves a free thread beside a waiting ticket, or on a finish
        /// with threads still leased. Returns the number of states.
        fn explore(roles: &[Role], budget: usize, gated: bool) -> usize {
            let mut seen = HashSet::new();
            let mut stack: Vec<(Vec<usize>, &str)> = vec![(Vec::new(), "start")];
            while let Some((path, last)) = stack.pop() {
                let w = World::replay(roles, budget, gated, &path);
                if !seen.insert(format!("{w:?}")) {
                    continue;
                }
                let s = &w.sched;
                let ctx = || format!("{roles:?} budget {budget} gated {gated}, path {path:?}");
                assert!(
                    s.paused() || s.waiting() == 0 || s.in_use() == budget,
                    "after `{last}`: {} waiting beside {}/{budget} leased threads; {}",
                    s.waiting(),
                    s.in_use(),
                    ctx()
                );
                let mut moved = false;
                for i in 0..=roles.len() {
                    let mut next = World::replay(roles, budget, gated, &path);
                    if let Some(transition) = next.step(i) {
                        moved = true;
                        let mut p = path.clone();
                        p.push(i);
                        stack.push((p, transition));
                    }
                }
                if !moved {
                    assert!(
                        w.pcs.iter().all(|pc| *pc == Pc::Done),
                        "every session blocked after `{last}`: {:?}; {}",
                        w.pcs,
                        ctx()
                    );
                    assert_eq!((s.in_use(), s.waiting()), (0, 0), "{}", ctx());
                    assert!(s.high_water() <= budget, "{}", ctx());
                }
            }
            seen.len()
        }

        #[test]
        fn no_interleaving_blocks_every_session_or_strands_a_lease() {
            use Role::*;
            let casts: [&[Role]; 7] = [
                &[Runner, Waiter],
                &[Elevator, Plain],
                &[Runner, Waiter, Plain],
                &[Runner, Waiter, Waiter],
                &[Runner, Waiter, Elevator],
                &[Elevator, Plain, Plain],
                &[Elevator, Elevator, Plain],
            ];
            let mut states = 0;
            for roles in casts {
                for budget in 1..=3 {
                    for gated in [false, true] {
                        states += explore(roles, budget, gated);
                    }
                }
            }
            assert!(states > 1_000, "the explorer visited {states} states");
        }
    }
}
