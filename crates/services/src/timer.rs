//! The timer-manager component (`tmr` interface).
//!
//! §V-B's **Timer** workload: "a thread wakes up, then blocks for a
//! certain amount of time periodically."
//!
//! | function | role | effect |
//! |---|---|---|
//! | `tmr_create(compid, period_ns)` → tmrid | create | create a periodic timer armed at `now + period` |
//! | `tmr_wait(compid, desc)` | block | sleep until the timer's next deadline |
//! | `tmr_period(compid, desc, period_ns)` | — | change the period |
//! | `tmr_free(compid, desc)` | terminate | destroy |
//!
//! A timer fault loses the arming state; recovery replays `tmr_create`
//! (+ `tmr_period`) from tracked metadata, re-arming relative to the
//! current virtual time — the same behavior the paper's timer recovery
//! exhibits (a period may stretch across the fault, but periodicity
//! resumes).

use std::collections::BTreeMap;

use composite::{Service, ServiceCtx, ServiceError, SimTime, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Timer {
    period: SimTime,
    next_deadline: SimTime,
}

/// The timer-manager service component.
#[derive(Debug, Default)]
pub struct TimerService {
    timers: BTreeMap<i64, Timer>,
    next_id: i64,
}

impl TimerService {
    /// A fresh timer manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Service for TimerService {
    fn interface(&self) -> &'static str {
        "tmr"
    }

    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            // tmr_create(compid, period_ns) -> tmrid
            "tmr_create" => {
                let _compid = args[0].int()?;
                let period = args[1].int()?;
                if period <= 0 {
                    return Err(ServiceError::InvalidArg);
                }
                let period = SimTime(period as u64);
                self.next_id += 1;
                let id = self.next_id;
                self.timers.insert(
                    id,
                    Timer {
                        period,
                        next_deadline: ctx.now() + period,
                    },
                );
                Ok(Value::Int(id))
            }
            // tmr_wait(compid, desc(tmrid)) -> 0 once the deadline passed
            "tmr_wait" => {
                let id = args[1].int()?;
                let now = ctx.now();
                let tmr = self.timers.get_mut(&id).ok_or(ServiceError::NotFound)?;
                if now >= tmr.next_deadline {
                    // Deadline reached (retry after sleep, or late call):
                    // re-arm for the next period and return.
                    tmr.next_deadline += tmr.period;
                    if tmr.next_deadline <= now {
                        // Missed whole periods (e.g. across a fault):
                        // resynchronize relative to now.
                        tmr.next_deadline = now + tmr.period;
                    }
                    return Ok(Value::Int(0));
                }
                let deadline = tmr.next_deadline;
                Err(ctx.sleep_current_until(deadline))
            }
            // tmr_period(compid, desc(tmrid), period_ns)
            "tmr_period" => {
                let id = args[1].int()?;
                let period = args[2].int()?;
                if period <= 0 {
                    return Err(ServiceError::InvalidArg);
                }
                let now = ctx.now();
                let tmr = self.timers.get_mut(&id).ok_or(ServiceError::NotFound)?;
                tmr.period = SimTime(period as u64);
                tmr.next_deadline = now + tmr.period;
                Ok(Value::Int(0))
            }
            // tmr_free(compid, desc(tmrid))
            "tmr_free" => {
                let id = args[1].int()?;
                self.timers.remove(&id).ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }

    fn reset(&mut self) {
        self.timers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CallError, ComponentId, CostModel, Kernel, Priority, ThreadId};

    fn setup() -> (Kernel, ComponentId, ComponentId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let tmr = k.add_component("tmr", Box::new(TimerService::new()));
        k.grant(app, tmr);
        let t = k.create_thread(app, Priority(5));
        (k, app, tmr, t)
    }

    fn create(k: &mut Kernel, app: ComponentId, tmr: ComponentId, t: ThreadId, period: i64) -> i64 {
        k.invoke(
            app,
            t,
            tmr,
            "tmr_create",
            &[Value::Int(1), Value::Int(period)],
        )
        .unwrap()
        .int()
        .unwrap()
    }

    #[test]
    fn wait_sleeps_until_deadline_then_fires() {
        let (mut k, app, tmr, t) = setup();
        let id = create(&mut k, app, tmr, t, 1_000);
        let err = k
            .invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        assert_eq!(k.earliest_wakeup(), Some(SimTime(1_000)));
        k.advance_to(SimTime(1_000));
        // Retry succeeds and re-arms.
        let r = k
            .invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        assert_eq!(r, Value::Int(0));
        // Second wait sleeps until 2000.
        let _ = k.invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)]);
        assert_eq!(k.earliest_wakeup(), Some(SimTime(2_000)));
    }

    #[test]
    fn missed_periods_resynchronize() {
        let (mut k, app, tmr, t) = setup();
        let id = create(&mut k, app, tmr, t, 1_000);
        k.advance_to(SimTime(10_500));
        let r = k
            .invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        assert_eq!(r, Value::Int(0));
        // Next deadline is now + period, not a burst of stale deadlines.
        let _ = k.invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)]);
        assert_eq!(k.earliest_wakeup(), Some(SimTime(11_500)));
    }

    #[test]
    fn invalid_period_rejected() {
        let (mut k, app, tmr, t) = setup();
        let err = k
            .invoke(app, t, tmr, "tmr_create", &[Value::Int(1), Value::Int(0)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn period_change_rearms() {
        let (mut k, app, tmr, t) = setup();
        let id = create(&mut k, app, tmr, t, 1_000);
        k.invoke(
            app,
            t,
            tmr,
            "tmr_period",
            &[Value::Int(1), Value::Int(id), Value::Int(5_000)],
        )
        .unwrap();
        let _ = k.invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)]);
        assert_eq!(k.earliest_wakeup(), Some(SimTime(5_000)));
    }

    #[test]
    fn free_then_wait_not_found() {
        let (mut k, app, tmr, t) = setup();
        let id = create(&mut k, app, tmr, t, 1_000);
        k.invoke(app, t, tmr, "tmr_free", &[Value::Int(1), Value::Int(id)])
            .unwrap();
        let err = k
            .invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }

    #[test]
    fn reboot_clears_timers() {
        let (mut k, app, tmr, t) = setup();
        let id = create(&mut k, app, tmr, t, 1_000);
        k.fault(tmr);
        k.micro_reboot(tmr).unwrap();
        let err = k
            .invoke(app, t, tmr, "tmr_wait", &[Value::Int(1), Value::Int(id)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
    }
}
