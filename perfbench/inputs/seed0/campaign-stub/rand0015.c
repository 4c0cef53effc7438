#include <stdio.h>

int main(void) {
    int a;
    a = 7;
    a = a - a;
    {
        int c;
        c = c + a;
    }
    return 0;
}
